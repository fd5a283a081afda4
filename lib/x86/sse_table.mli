(** Shared opcode table for SSE (legacy-prefixed) and AVX (VEX-encoded)
    instructions, used by both the encoder and the decoder. *)

(** Mandatory legacy prefix of an SSE opcode. *)
type pp = PNone | P66 | PF2 | PF3

(** Opcode map (escape sequence). *)
type omap = M0F | M0F38 | M0F3A

(** Operand pattern of a table entry. *)
type kind =
  | Xx              (** xmm <- xmm/m *)
  | Xx_store        (** xmm/m <- xmm *)
  | Xx_imm8         (** xmm <- xmm/m, imm8 *)
  | X_gpr           (** xmm <- r/m (GPR-width source; W selects 32/64) *)
  | Gpr_x           (** r <- xmm/m *)
  | Gpr_store       (** r/m <- xmm *)
  | Grp_imm8 of int (** opcode-group shift: /digit with imm8, rm is xmm *)

type entry = { mnem : Inst.mnemonic; pp : pp; map : omap; op : int; kind : kind }

(** All legacy-SSE entries. Keys [(pp, map, op)] are unique except that
    MOVD/MOVQ share 0x6E/0x7E (distinguished by REX.W at decode). *)
val entries : entry list

(** The lookups below are O(1) array indexes built once from the
    tables; each returns what a scan of the table in order would. *)

(** [find_by_mnem m] lists the entries for mnemonic [m] in table order
    (a data-movement mnemonic has both a load and a store entry). *)
val find_by_mnem : Inst.mnemonic -> entry list

(** [find_by_opcode pp map op] lists the entries with key
    [(pp, map, op)] in table order: one, none, or several that share an
    opcode (the shift groups, told apart by ModRM /digit; MOVD/MOVQ). *)
val find_by_opcode : pp -> omap -> int -> entry list

(** VEX operand pattern. *)
type vkind =
  | Vrm        (** dst <- src (vvvv unused) *)
  | Vrm_store  (** dst/m <- src *)
  | Vrvm       (** dst <- src1, src2/m (vvvv = src1) *)
  | Vgpr_rvm   (** BMI ANDN-style: GPR dst(reg), src1(vvvv), src2(rm) *)
  | Vgpr_rmv   (** BMI SHLX-style: GPR dst(reg), src(rm), count(vvvv) *)

type ventry = {
  vmnem : Inst.mnemonic;
  vpp : int;           (** VEX.pp: 0 = none, 1 = 66, 2 = F3, 3 = F2 (Intel SDM) *)
  vmap : int;          (** 1 = 0F, 2 = 0F38, 3 = 0F3A *)
  vop : int;
  vw : bool option;    (** [Some b]: W must equal [b]; [None]: W ignored *)
  vkind : vkind;
}

val ventries : ventry list

(** [vfind_by_mnem m] lists the VEX entries for [m] in table order. *)
val vfind_by_mnem : Inst.mnemonic -> ventry list

(** [vfind_by_opcode ~pp ~map ~op ~w] is the first VEX entry with that
    key whose [vw] admits [w], if any. *)
val vfind_by_opcode : pp:int -> map:int -> op:int -> w:bool -> ventry option
