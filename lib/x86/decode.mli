(** x86-64 machine-code decoder for the supported instruction subset.

    The decoder is the inverse of {!Encode}: for every instruction the
    encoder can produce, [decode] reconstructs the original {!Inst.t}
    (including canonical memory-operand widths), and
    [encode (decode bytes) = bytes]. *)

exception Decode_error of string * int
(** [Decode_error (msg, offset)] is raised on bytes outside the
    supported encoding subset; [offset] is the position of the
    offending instruction start. *)

(** [decode_one s ~pos] decodes the instruction starting at [pos] and
    returns it together with its encoded length.
    @raise Decode_error on unsupported or truncated encodings. *)
val decode_one : string -> pos:int -> Inst.t * int

(** [decode_block s] decodes a whole basic block, returning the same
    layout records {!Encode.encode_block} would produce for it.
    @raise Decode_error if an instruction does not decode (the first
    such instruction wins), or else if [s] is not the canonical
    encoding of what it decodes to; the offset is then that of the first
    instruction whose re-encoding differs from its input bytes. *)
val decode_block : string -> Encode.layout list

(** [instructions s] is [decode_block] without the layout metadata. *)
val instructions : string -> Inst.t list
