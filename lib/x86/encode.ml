type encoded = {
  bytes : string;
  opcode_off : int;
  has_lcp : bool;
}

exception Unencodable of string

let unencodable i =
  raise (Unencodable (Inst.to_string i))

(* ------------------------------------------------------------------ *)
(* Abstract instruction form, rendered to bytes by [emit].             *)

type rm = RmReg of int | RmMem of Operand.mem

type vexinfo = { vpp : int; vmap : int; vw : bool; vl : bool; vvvv : int }

type form = {
  legacy : int list;
  rex_w : bool;
  force_rex : bool;
  map : [ `Primary | `Esc0F | `Esc0F38 | `Esc0F3A ];
  opcode : int;
  plus_reg : int option;
  modrm : (int * rm) option;
  imm : (int64 * int) option;
  vex : vexinfo option;
  lcp : bool;
}

let base_form =
  { legacy = []; rex_w = false; force_rex = false; map = `Primary;
    opcode = 0; plus_reg = None; modrm = None; imm = None; vex = None;
    lcp = false }

let gidx = Register.gpr_index

let reg_num = function
  | Register.Gpr (_, g) -> gidx g
  | Register.Xmm i | Register.Ymm i -> i

(* SPL/BPL/SIL/DIL require a REX prefix to be addressable as low bytes. *)
let needs_force_rex ops =
  let check = function
    | Operand.Reg (Register.Gpr (Register.W8, g)) ->
      let i = gidx g in
      i >= 4 && i <= 7
    | _ -> false
  in
  List.exists check ops

let add_byte buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let add_int_le buf v n =
  for k = 0 to n - 1 do
    add_byte buf (Int64.to_int (Int64.shift_right_logical v (8 * k)))
  done

let pick_mod ~rbp_like disp =
  if disp = 0 && not rbp_like then (0b00, None)
  else if disp >= -128 && disp <= 127 then (0b01, Some (disp, 1))
  else (0b10, Some (disp, 4))

let scale_bits = function
  | Operand.S1 -> 0 | Operand.S2 -> 1 | Operand.S4 -> 2 | Operand.S8 -> 3

let emit_modrm buf reg_field rm =
  let reg3 = (reg_field land 7) lsl 3 in
  let add_disp = function
    | None -> ()
    | Some (d, n) -> add_int_le buf (Int64.of_int d) n
  in
  match rm with
  | RmReg n -> add_byte buf (0b11_000_000 lor reg3 lor (n land 7))
  | RmMem m ->
    (match m.Operand.base, m.Operand.index with
     | None, None ->
       (* absolute: SIB form with no base, disp32 (mod 00, base 101) *)
       add_byte buf (reg3 lor 0b100);
       add_byte buf 0b00_100_101;
       add_disp (Some (m.disp, 4))
     | Some b, None when gidx b land 7 <> 4 ->
       let b3 = gidx b land 7 in
       let md, disp = pick_mod ~rbp_like:(b3 = 5) m.disp in
       add_byte buf ((md lsl 6) lor reg3 lor b3);
       add_disp disp
     | Some b, None ->
       (* RSP/R12 base: SIB required *)
       let b3 = gidx b land 7 in
       let md, disp = pick_mod ~rbp_like:false m.disp in
       add_byte buf ((md lsl 6) lor reg3 lor 0b100);
       add_byte buf (0b00_100_000 lor b3);
       add_disp disp
     | None, Some (i, s) ->
       add_byte buf (reg3 lor 0b100);
       add_byte buf ((scale_bits s lsl 6) lor ((gidx i land 7) lsl 3) lor 0b101);
       add_disp (Some (m.disp, 4))
     | Some b, Some (i, s) ->
       let b3 = gidx b land 7 in
       let md, disp = pick_mod ~rbp_like:(b3 = 5) m.disp in
       add_byte buf ((md lsl 6) lor reg3 lor 0b100);
       add_byte buf ((scale_bits s lsl 6) lor ((gidx i land 7) lsl 3) lor b3);
       add_disp disp)

(* Append the encoding of [f] to [buf]; returns the offset of the
   nominal opcode relative to the instruction's first byte. *)
let emit buf (f : form) =
  let start = Buffer.length buf in
  List.iter (add_byte buf) f.legacy;
  let reg_ext = match f.modrm with Some (r, _) -> r >= 8 | None -> false in
  let rm_ext, idx_ext, base_ext =
    match f.modrm with
    | Some (_, RmReg n) -> (n >= 8, false, false)
    | Some (_, RmMem m) ->
      let bext = match m.base with Some b -> gidx b >= 8 | None -> false in
      let xext = match m.index with Some (i, _) -> gidx i >= 8 | None -> false in
      (false, xext, bext)
    | None -> (false, false, false)
  in
  let plus_ext = match f.plus_reg with Some n -> n >= 8 | None -> false in
  let opcode_off =
    match f.vex with
    | Some v ->
      let off = Buffer.length buf - start in
      let r = not reg_ext and x = not idx_ext and b = not (rm_ext || base_ext) in
      let vvvv_inv = lnot v.vvvv land 0xF in
      if v.vmap = 1 && not v.vw && x && b then begin
        add_byte buf 0xC5;
        add_byte buf
          ((if r then 0x80 else 0) lor (vvvv_inv lsl 3)
           lor (if v.vl then 4 else 0) lor v.vpp)
      end else begin
        add_byte buf 0xC4;
        add_byte buf
          ((if r then 0x80 else 0) lor (if x then 0x40 else 0)
           lor (if b then 0x20 else 0) lor v.vmap);
        add_byte buf
          ((if v.vw then 0x80 else 0) lor (vvvv_inv lsl 3)
           lor (if v.vl then 4 else 0) lor v.vpp)
      end;
      off
    | None ->
      let bits =
        (if f.rex_w then 8 else 0)
        lor (if reg_ext then 4 else 0)
        lor (if idx_ext then 2 else 0)
        lor (if rm_ext || base_ext || plus_ext then 1 else 0)
      in
      if bits <> 0 || f.force_rex then add_byte buf (0x40 lor bits);
      let off = Buffer.length buf - start in
      (match f.map with
       | `Primary -> ()
       | `Esc0F -> add_byte buf 0x0F
       | `Esc0F38 -> add_byte buf 0x0F; add_byte buf 0x38
       | `Esc0F3A -> add_byte buf 0x0F; add_byte buf 0x3A);
      off
  in
  (match f.plus_reg with
   | Some n -> add_byte buf (f.opcode lor (n land 7))
   | None -> add_byte buf f.opcode);
  (match f.modrm with
   | Some (reg_field, rm) -> emit_modrm buf reg_field rm
   | None -> ());
  (match f.imm with
   | Some (v, n) -> add_int_le buf v n
   | None -> ());
  let len = Buffer.length buf - start in
  assert (len >= 1 && len <= 15);
  opcode_off

(* ------------------------------------------------------------------ *)
(* Form construction                                                   *)

let reg_width_bytes = function
  | Register.Gpr (w, _) -> Register.width_bytes w
  | Register.Xmm _ -> 16
  | Register.Ymm _ -> 32

(* Operand width of an integer instruction, from its first register
   operand or memory access size. *)
let int_width i =
  let rec go = function
    | [] -> 8
    | Operand.Reg r :: _ -> reg_width_bytes r
    | Operand.Mem m :: _ -> m.Operand.width
    | Operand.Imm _ :: rest -> go rest
  in
  go i.Inst.ops

(* Apply 66-prefix / REX.W for a given integer operand width. *)
let with_width w f =
  match w with
  | 2 -> { f with legacy = f.legacy @ [ 0x66 ] }
  | 8 -> { f with rex_w = true }
  | _ -> f

let rm_of_operand i = function
  | Operand.Reg r -> RmReg (reg_num r)
  | Operand.Mem m -> RmMem m
  | Operand.Imm _ -> unencodable i

(* Immediate size for ALU-style imm forms; marks LCP for imm16. *)
let alu_imm_form i ~w ~op8 ~op_i8 ~op_full ~ext rm v =
  let f = with_width w { base_form with modrm = Some (ext, rm) } in
  if w = 1 then { f with opcode = op8; imm = Some (v, 1) }
  else if Operand.fits_i8 v && op_i8 >= 0 then
    { f with opcode = op_i8; imm = Some (v, 1) }
  else
    let isz = if w = 2 then 2 else 4 in
    if not (Operand.fits_i32 v) then unencodable i;
    { f with opcode = op_full; imm = Some (v, isz); lcp = (isz = 2) }

let alu_indices =
  Inst.[ ADD, 0; OR, 1; ADC, 2; SBB, 3; AND, 4; SUB, 5; XOR, 6; CMP, 7 ]

let shift_digits =
  Inst.[ ROL, 0; ROR, 1; SHL, 4; SHR, 5; SAR, 7 ]

let sse_legacy = function
  | Sse_table.PNone -> []
  | Sse_table.P66 -> [ 0x66 ]
  | Sse_table.PF2 -> [ 0xF2 ]
  | Sse_table.PF3 -> [ 0xF3 ]

let form_of_sse i =
  (* MOVQ between a GPR and an XMM register borrows MOVD's opcodes with
     REX.W set; route those operand shapes through the MOVD entries. *)
  let mnem, force_w =
    match i.Inst.mnem, i.Inst.ops with
    | Inst.MOVQ, [ Operand.Reg (Register.Gpr _); _ ]
    | Inst.MOVQ, [ _; Operand.Reg (Register.Gpr _) ] -> (Inst.MOVD, true)
    | m, _ -> (m, false)
  in
  let entries = Sse_table.find_by_mnem mnem in
  if entries = [] then unencodable i;
  let pick kind_ok =
    match List.find_opt (fun e -> kind_ok e.Sse_table.kind) entries with
    | Some e -> e
    | None -> unencodable i
  in
  let mk e = { base_form with legacy = sse_legacy e.Sse_table.pp;
               map = (match e.Sse_table.map with
                      | Sse_table.M0F -> `Esc0F
                      | Sse_table.M0F38 -> `Esc0F38
                      | Sse_table.M0F3A -> `Esc0F3A);
               opcode = e.Sse_table.op }
  in
  match i.Inst.ops with
  (* shift-group forms: pslld xmm, imm8 *)
  | [ Operand.Reg (Register.Xmm x); Operand.Imm v ] ->
    (match
       List.find_opt
         (fun e -> match e.Sse_table.kind with
            | Sse_table.Grp_imm8 _ -> true | _ -> false)
         entries
     with
     | Some ({ Sse_table.kind = Sse_table.Grp_imm8 d; _ } as e) ->
       { (mk e) with modrm = Some (d, RmReg x); imm = Some (v, 1) }
     | _ -> unencodable i)
  | [ Operand.Reg (Register.Xmm x); src; Operand.Imm v ] ->
    let e = pick (function Sse_table.Xx_imm8 -> true | _ -> false) in
    { (mk e) with modrm = Some (x, rm_of_operand i src); imm = Some (v, 1) }
  | [ Operand.Reg (Register.Xmm x);
      ((Operand.Reg (Register.Xmm _) | Operand.Mem _) as src) ] ->
    let e =
      pick (function Sse_table.Xx | Sse_table.X_gpr -> true | _ -> false)
    in
    let f = { (mk e) with modrm = Some (x, rm_of_operand i src) } in
    let wide =
      force_w
      || (e.Sse_table.kind = Sse_table.X_gpr
          && (match src with
              | Operand.Mem m -> m.Operand.width = 8
              | _ -> false))
    in
    if wide then { f with rex_w = true } else f
  | [ Operand.Reg (Register.Xmm x); Operand.Reg (Register.Gpr (w, g)) ] ->
    (* cvtsi2sd xmm, r32/r64 ; movd/movq xmm, r32/r64 *)
    let e = pick (function Sse_table.X_gpr -> true | _ -> false) in
    let f = { (mk e) with modrm = Some (x, RmReg (gidx g)) } in
    if w = Register.W64 || force_w then { f with rex_w = true } else f
  | [ Operand.Reg (Register.Gpr (w, g));
      ((Operand.Reg (Register.Xmm _) | Operand.Mem _) as src) ] ->
    (* cvttsd2si r, xmm/m — or movd/movq r, xmm (store direction) *)
    let e =
      pick (function
        | Sse_table.Gpr_x | Sse_table.Gpr_store -> true
        | _ -> false)
    in
    let f =
      match e.Sse_table.kind with
      | Sse_table.Gpr_x ->
        { (mk e) with modrm = Some (gidx g, rm_of_operand i src) }
      | Sse_table.Gpr_store ->
        (match src with
         | Operand.Reg (Register.Xmm x) ->
           { (mk e) with modrm = Some (x, RmReg (gidx g)) }
         | _ -> unencodable i)
      | _ -> unencodable i
    in
    if w = Register.W64 || force_w then { f with rex_w = true } else f
  | [ (Operand.Mem _ as dst); Operand.Reg (Register.Xmm x) ] ->
    let e =
      pick (function
        | Sse_table.Xx_store | Sse_table.Gpr_store -> true
        | _ -> false)
    in
    { (mk e) with modrm = Some (x, rm_of_operand i dst) }
  | _ -> unencodable i

let form_of_vex i =
  let entries = Sse_table.vfind_by_mnem i.Inst.mnem in
  if entries = [] then unencodable i;
  let vl =
    List.exists
      (function Operand.Reg (Register.Ymm _) -> true | _ -> false)
      i.Inst.ops
  in
  let vnum = function
    | Operand.Reg (Register.Xmm n) | Operand.Reg (Register.Ymm n) -> n
    | _ -> unencodable i
  in
  let pick k =
    match List.find_opt (fun e -> e.Sse_table.vkind = k) entries with
    | Some e -> e
    | None -> unencodable i
  in
  let mk e ~vvvv ~reg ~rm =
    let vw = match e.Sse_table.vw with Some b -> b | None -> false in
    { base_form with
      vex = Some { vpp = e.Sse_table.vpp; vmap = e.Sse_table.vmap; vw;
                   vl; vvvv };
      opcode = e.Sse_table.vop;
      modrm = Some (reg, rm) }
  in
  let gnum = function
    | Operand.Reg (Register.Gpr (_, g)) -> gidx g
    | _ -> unencodable i
  in
  let gpr_w =
    List.exists
      (function
        | Operand.Reg (Register.Gpr (Register.W64, _)) -> true
        | _ -> false)
      i.Inst.ops
  in
  match i.Inst.ops with
  | [ Operand.Reg (Register.Gpr _); _; _ ] ->
    (* BMI general-purpose forms; W encodes the operand width *)
    (match entries with
     | { Sse_table.vkind = Sse_table.Vgpr_rvm; _ } :: _ ->
       let e = pick Sse_table.Vgpr_rvm in
       (match i.Inst.ops with
        | [ dst; src1; src2 ] ->
          let f = mk e ~vvvv:(gnum src1) ~reg:(gnum dst)
                    ~rm:(rm_of_operand i src2) in
          { f with vex = Option.map (fun v -> { v with vw = gpr_w }) f.vex }
        | _ -> unencodable i)
     | { Sse_table.vkind = Sse_table.Vgpr_rmv; _ } :: _ ->
       let e = pick Sse_table.Vgpr_rmv in
       (match i.Inst.ops with
        | [ dst; src; count ] ->
          let f = mk e ~vvvv:(gnum count) ~reg:(gnum dst)
                    ~rm:(rm_of_operand i src) in
          { f with vex = Option.map (fun v -> { v with vw = gpr_w }) f.vex }
        | _ -> unencodable i)
     | _ -> unencodable i)
  | [ (Operand.Reg _ as dst); src1; src2 ] ->
    let e = pick Sse_table.Vrvm in
    mk e ~vvvv:(vnum src1) ~reg:(vnum dst) ~rm:(rm_of_operand i src2)
  | [ (Operand.Mem _ as dst); (Operand.Reg _ as src) ] ->
    let e = pick Sse_table.Vrm_store in
    mk e ~vvvv:0 ~reg:(vnum src) ~rm:(rm_of_operand i dst)
  | [ (Operand.Reg _ as dst); src ] ->
    let e = pick Sse_table.Vrm in
    mk e ~vvvv:0 ~reg:(vnum dst) ~rm:(rm_of_operand i src)
  | _ -> unencodable i

let form_of_inst (i : Inst.t) : form =
  let open Inst in
  let force = needs_force_rex i.ops in
  let form =
    match i.mnem, i.ops with
    (* ----- ALU binary ----- *)
    | (ADD | OR | ADC | SBB | AND | SUB | XOR | CMP), [ dst; src ] ->
      let idx = List.assq i.mnem alu_indices in
      let w = int_width i in
      (match dst, src with
       | (Operand.Reg _ | Operand.Mem _), Operand.Reg r ->
         with_width w
           { base_form with
             opcode = (idx * 8) + (if w = 1 then 0x00 else 0x01);
             modrm = Some (reg_num r, rm_of_operand i dst) }
       | Operand.Reg r, Operand.Mem _ ->
         with_width w
           { base_form with
             opcode = (idx * 8) + (if w = 1 then 0x02 else 0x03);
             modrm = Some (reg_num r, rm_of_operand i src) }
       | (Operand.Reg _ | Operand.Mem _), Operand.Imm v ->
         alu_imm_form i ~w ~op8:0x80 ~op_i8:0x83 ~op_full:0x81 ~ext:idx
           (rm_of_operand i dst) v
       | _ -> unencodable i)
    (* ----- MOV ----- *)
    | MOV, [ dst; src ] ->
      let w = int_width i in
      (match dst, src with
       | (Operand.Reg _ | Operand.Mem _), Operand.Reg r ->
         with_width w
           { base_form with opcode = (if w = 1 then 0x88 else 0x89);
             modrm = Some (reg_num r, rm_of_operand i dst) }
       | Operand.Reg r, Operand.Mem _ ->
         with_width w
           { base_form with opcode = (if w = 1 then 0x8A else 0x8B);
             modrm = Some (reg_num r, rm_of_operand i src) }
       | Operand.Reg r, Operand.Imm v ->
         let n = reg_num r in
         (match w with
          | 1 -> { base_form with opcode = 0xB0; plus_reg = Some n;
                   imm = Some (v, 1) }
          | 2 -> { base_form with legacy = [ 0x66 ]; opcode = 0xB8;
                   plus_reg = Some n; imm = Some (v, 2); lcp = true }
          | 4 -> { base_form with opcode = 0xB8; plus_reg = Some n;
                   imm = Some (v, 4) }
          | _ ->
            if Operand.fits_i32 v then
              { base_form with rex_w = true; opcode = 0xC7;
                modrm = Some (0, RmReg n); imm = Some (v, 4) }
            else
              { base_form with rex_w = true; opcode = 0xB8;
                plus_reg = Some n; imm = Some (v, 8) })
       | Operand.Mem _, Operand.Imm v ->
         if w = 1 then
           { base_form with opcode = 0xC6;
             modrm = Some (0, rm_of_operand i dst); imm = Some (v, 1) }
         else begin
           let isz = if w = 2 then 2 else 4 in
           if not (Operand.fits_i32 v) then unencodable i;
           with_width w
             { base_form with opcode = 0xC7;
               modrm = Some (0, rm_of_operand i dst); imm = Some (v, isz);
               lcp = (isz = 2) }
         end
       | _ -> unencodable i)
    (* ----- TEST ----- *)
    | TEST, [ dst; src ] ->
      let w = int_width i in
      (match dst, src with
       | (Operand.Reg _ | Operand.Mem _), Operand.Reg r ->
         with_width w
           { base_form with opcode = (if w = 1 then 0x84 else 0x85);
             modrm = Some (reg_num r, rm_of_operand i dst) }
       | (Operand.Reg _ | Operand.Mem _), Operand.Imm v ->
         let isz = if w = 1 then 1 else if w = 2 then 2 else 4 in
         if not (Operand.fits_i32 v) then unencodable i;
         with_width w
           { base_form with opcode = (if w = 1 then 0xF6 else 0xF7);
             modrm = Some (0, rm_of_operand i dst); imm = Some (v, isz);
             lcp = (isz = 2) }
       | _ -> unencodable i)
    (* ----- unary groups ----- *)
    | (NEG | NOT | MUL | DIV | IDIV), [ dst ] ->
      let ext = (match i.mnem with
                 | NOT -> 2 | NEG -> 3 | MUL -> 4 | DIV -> 6 | IDIV -> 7
                 | _ -> assert false) in
      let w = int_width i in
      with_width w
        { base_form with opcode = (if w = 1 then 0xF6 else 0xF7);
          modrm = Some (ext, rm_of_operand i dst) }
    | (INC | DEC), [ dst ] ->
      let ext = if i.mnem = INC then 0 else 1 in
      let w = int_width i in
      with_width w
        { base_form with opcode = (if w = 1 then 0xFE else 0xFF);
          modrm = Some (ext, rm_of_operand i dst) }
    (* ----- IMUL ----- *)
    | IMUL, [ Operand.Reg r; src ] ->
      let w = int_width i in
      with_width w
        { base_form with map = `Esc0F; opcode = 0xAF;
          modrm = Some (reg_num r, rm_of_operand i src) }
    | IMUL, [ Operand.Reg r; src; Operand.Imm v ] ->
      let w = int_width i in
      let f = with_width w
          { base_form with modrm = Some (reg_num r, rm_of_operand i src) } in
      if Operand.fits_i8 v then { f with opcode = 0x6B; imm = Some (v, 1) }
      else begin
        let isz = if w = 2 then 2 else 4 in
        if not (Operand.fits_i32 v) then unencodable i;
        { f with opcode = 0x69; imm = Some (v, isz); lcp = (isz = 2) }
      end
    (* ----- shifts ----- *)
    | (SHL | SHR | SAR | ROL | ROR), [ dst; amount ] ->
      let d = List.assq i.mnem shift_digits in
      let w = int_width i in
      (match amount with
       | Operand.Imm v ->
         with_width w
           { base_form with opcode = (if w = 1 then 0xC0 else 0xC1);
             modrm = Some (d, rm_of_operand i dst); imm = Some (v, 1) }
       | Operand.Reg (Register.Gpr (Register.W8, Register.RCX)) ->
         with_width w
           { base_form with opcode = (if w = 1 then 0xD2 else 0xD3);
             modrm = Some (d, rm_of_operand i dst) }
       | _ -> unencodable i)
    (* ----- widening moves ----- *)
    | (MOVZX | MOVSX), [ Operand.Reg r; src ] ->
      let srcw = (match src with
                  | Operand.Reg s -> reg_width_bytes s
                  | Operand.Mem m -> m.Operand.width
                  | _ -> unencodable i) in
      let base = if i.mnem = MOVZX then 0xB6 else 0xBE in
      let opcode = (match srcw with 1 -> base | 2 -> base + 1
                    | _ -> unencodable i) in
      with_width (reg_width_bytes r)
        { base_form with map = `Esc0F; opcode;
          modrm = Some (reg_num r, rm_of_operand i src) }
    | MOVSXD, [ Operand.Reg r; src ] ->
      { base_form with rex_w = true; opcode = 0x63;
        modrm = Some (reg_num r, rm_of_operand i src) }
    (* ----- exchange ----- *)
    | XCHG, [ dst; Operand.Reg r ] ->
      let w = int_width i in
      with_width w
        { base_form with opcode = (if w = 1 then 0x86 else 0x87);
          modrm = Some (reg_num r, rm_of_operand i dst) }
    | BSWAP, [ Operand.Reg r ] ->
      let w = reg_width_bytes r in
      if w <> 4 && w <> 8 then unencodable i;
      with_width w
        { base_form with map = `Esc0F; opcode = 0xC8;
          plus_reg = Some (reg_num r) }
    (* ----- stack ----- *)
    | PUSH, [ Operand.Reg (Register.Gpr (Register.W64, g)) ] ->
      { base_form with opcode = 0x50; plus_reg = Some (gidx g) }
    | POP, [ Operand.Reg (Register.Gpr (Register.W64, g)) ] ->
      { base_form with opcode = 0x58; plus_reg = Some (gidx g) }
    (* ----- bit scans & counts ----- *)
    | (BSF | BSR), [ Operand.Reg r; src ] ->
      with_width (reg_width_bytes r)
        { base_form with map = `Esc0F;
          opcode = (if i.mnem = BSF then 0xBC else 0xBD);
          modrm = Some (reg_num r, rm_of_operand i src) }
    | (POPCNT | LZCNT | TZCNT), [ Operand.Reg r; src ] ->
      let opcode = (match i.mnem with
                    | POPCNT -> 0xB8 | LZCNT -> 0xBD | TZCNT -> 0xBC
                    | _ -> assert false) in
      let f = with_width (reg_width_bytes r)
          { base_form with map = `Esc0F; opcode;
            modrm = Some (reg_num r, rm_of_operand i src) } in
      { f with legacy = f.legacy @ [ 0xF3 ] }
    (* ----- sign extensions of the accumulator ----- *)
    | CDQ, [] -> { base_form with opcode = 0x99 }
    | CQO, [] -> { base_form with opcode = 0x99; rex_w = true }
    | CWDE, [] -> { base_form with opcode = 0x98 }
    | CDQE, [] -> { base_form with opcode = 0x98; rex_w = true }
    | CMC, [] -> { base_form with opcode = 0xF5 }
    | CLC, [] -> { base_form with opcode = 0xF8 }
    | STC, [] -> { base_form with opcode = 0xF9 }
    | (BT | BTS | BTR | BTC), [ dst; Operand.Reg r ] ->
      let opcode = (match i.mnem with
                    | BT -> 0xA3 | BTS -> 0xAB | BTR -> 0xB3 | _ -> 0xBB) in
      with_width (int_width i)
        { base_form with map = `Esc0F; opcode;
          modrm = Some (reg_num r, rm_of_operand i dst) }
    | (BT | BTS | BTR | BTC), [ dst; Operand.Imm v ] ->
      let ext = (match i.mnem with
                 | BT -> 4 | BTS -> 5 | BTR -> 6 | _ -> 7) in
      with_width (int_width i)
        { base_form with map = `Esc0F; opcode = 0xBA;
          modrm = Some (ext, rm_of_operand i dst); imm = Some (v, 1) }
    | (SHLD | SHRD), [ dst; Operand.Reg r; Operand.Imm v ] ->
      with_width (int_width i)
        { base_form with map = `Esc0F;
          opcode = (if i.mnem = SHLD then 0xA4 else 0xAC);
          modrm = Some (reg_num r, rm_of_operand i dst); imm = Some (v, 1) }
    | MOVBE, [ Operand.Reg r; (Operand.Mem _ as src) ] ->
      with_width (reg_width_bytes r)
        { base_form with map = `Esc0F38; opcode = 0xF0;
          modrm = Some (reg_num r, rm_of_operand i src) }
    | MOVBE, [ (Operand.Mem _ as dst); Operand.Reg r ] ->
      with_width (reg_width_bytes r)
        { base_form with map = `Esc0F38; opcode = 0xF1;
          modrm = Some (reg_num r, rm_of_operand i dst) }
    (* ----- nops ----- *)
    | NOP, [] -> { base_form with opcode = 0x90 }
    | NOPL, [ (Operand.Mem m as dst) ] ->
      let f = { base_form with map = `Esc0F; opcode = 0x1F;
                modrm = Some (0, rm_of_operand i dst) } in
      if m.Operand.width = 2 then { f with legacy = [ 0x66 ] } else f
    (* ----- control flow ----- *)
    | JMP, [ Operand.Imm v ] ->
      if Operand.fits_i8 v then
        { base_form with opcode = 0xEB; imm = Some (v, 1) }
      else { base_form with opcode = 0xE9; imm = Some (v, 4) }
    | Jcc c, [ Operand.Imm v ] ->
      if Operand.fits_i8 v then
        { base_form with opcode = 0x70 + Inst.cond_code c; imm = Some (v, 1) }
      else
        { base_form with map = `Esc0F; opcode = 0x80 + Inst.cond_code c;
          imm = Some (v, 4) }
    | SETcc c, [ dst ] ->
      { base_form with map = `Esc0F; opcode = 0x90 + Inst.cond_code c;
        modrm = Some (0, rm_of_operand i dst) }
    | CMOVcc c, [ Operand.Reg r; src ] ->
      with_width (reg_width_bytes r)
        { base_form with map = `Esc0F; opcode = 0x40 + Inst.cond_code c;
          modrm = Some (reg_num r, rm_of_operand i src) }
    (* ----- address generation ----- *)
    | LEA, [ Operand.Reg r; (Operand.Mem _ as src) ] ->
      with_width (reg_width_bytes r)
        { base_form with opcode = 0x8D;
          modrm = Some (reg_num r, rm_of_operand i src) }
    (* ----- SSE / AVX ----- *)
    | _ ->
      if Inst.is_vex i then form_of_vex i else form_of_sse i
  in
  if force && not form.force_rex then { form with force_rex = true } else form

let encode i =
  let buf = Buffer.create 15 in
  let f = form_of_inst i in
  let opcode_off = emit buf f in
  { bytes = Buffer.contents buf; opcode_off; has_lcp = f.lcp }

let length i = String.length (encode i).bytes

type layout = {
  inst : Inst.t;
  off : int;
  len : int;
  nominal_opcode_off : int;
  lcp : bool;
}

let encode_block insts =
  let buf = Buffer.create 64 in
  let layouts =
    List.map
      (fun inst ->
        let f = form_of_inst inst in
        let off = Buffer.length buf in
        let opcode_off = emit buf f in
        { inst; off; len = Buffer.length buf - off;
          nominal_opcode_off = off + opcode_off; lcp = f.lcp })
      insts
  in
  (Buffer.contents buf, layouts)
