type pp = PNone | P66 | PF2 | PF3
type omap = M0F | M0F38 | M0F3A

type kind =
  | Xx
  | Xx_store
  | Xx_imm8
  | X_gpr
  | Gpr_x
  | Gpr_store
  | Grp_imm8 of int

type entry = { mnem : Inst.mnemonic; pp : pp; map : omap; op : int; kind : kind }

let e mnem pp op kind = { mnem; pp; map = M0F; op; kind }

let entries =
  let open Inst in
  [ e MOVAPS PNone 0x28 Xx; e MOVAPS PNone 0x29 Xx_store;
    e MOVUPS PNone 0x10 Xx; e MOVUPS PNone 0x11 Xx_store;
    e MOVAPD P66 0x28 Xx; e MOVAPD P66 0x29 Xx_store;
    e MOVSS PF3 0x10 Xx; e MOVSS PF3 0x11 Xx_store;
    e MOVSD PF2 0x10 Xx; e MOVSD PF2 0x11 Xx_store;
    e ADDPS PNone 0x58 Xx; e ADDPD P66 0x58 Xx;
    e ADDSS PF3 0x58 Xx; e ADDSD PF2 0x58 Xx;
    e SUBPS PNone 0x5C Xx; e SUBPD P66 0x5C Xx;
    e SUBSS PF3 0x5C Xx; e SUBSD PF2 0x5C Xx;
    e MULPS PNone 0x59 Xx; e MULPD P66 0x59 Xx;
    e MULSS PF3 0x59 Xx; e MULSD PF2 0x59 Xx;
    e DIVPS PNone 0x5E Xx; e DIVPD P66 0x5E Xx;
    e DIVSS PF3 0x5E Xx; e DIVSD PF2 0x5E Xx;
    e MINPS PNone 0x5D Xx; e MAXPS PNone 0x5F Xx;
    e SQRTPS PNone 0x51 Xx; e SQRTPD P66 0x51 Xx;
    e SQRTSS PF3 0x51 Xx; e SQRTSD PF2 0x51 Xx;
    e ANDPS PNone 0x54 Xx; e ANDPD P66 0x54 Xx;
    e ORPS PNone 0x56 Xx;
    e XORPS PNone 0x57 Xx; e XORPD P66 0x57 Xx;
    e UCOMISS PNone 0x2E Xx; e UCOMISD P66 0x2E Xx;
    e PXOR P66 0xEF Xx; e POR P66 0xEB Xx; e PAND P66 0xDB Xx;
    e PADDB P66 0xFC Xx; e PADDD P66 0xFE Xx; e PADDQ P66 0xD4 Xx;
    e PSUBD P66 0xFA Xx;
    { mnem = PMULLD; pp = P66; map = M0F38; op = 0x40; kind = Xx };
    e PMULUDQ P66 0xF4 Xx;
    e PUNPCKLDQ P66 0x62 Xx;
    e PSHUFD P66 0x70 Xx_imm8;
    e PSLLD P66 0x72 (Grp_imm8 6); e PSRLD P66 0x72 (Grp_imm8 2);
    e CVTSI2SD PF2 0x2A X_gpr; e CVTSI2SS PF3 0x2A X_gpr;
    e CVTTSD2SI PF2 0x2C Gpr_x;
    e CVTSS2SD PF3 0x5A Xx; e CVTSD2SS PF2 0x5A Xx;
    (* MOVD/MOVQ share opcodes 6E/7E; decode distinguishes via REX.W *)
    e MOVD P66 0x6E X_gpr; e MOVD P66 0x7E Gpr_store;
    e MOVQ PF3 0x7E Xx; e MOVQ P66 0xD6 Xx_store;
    e MOVDQA P66 0x6F Xx; e MOVDQA P66 0x7F Xx_store;
    e MOVDQU PF3 0x6F Xx; e MOVDQU PF3 0x7F Xx_store;
    e MINPD P66 0x5D Xx; e MAXPD P66 0x5F Xx;
    e MINSS PF3 0x5D Xx; e MAXSS PF3 0x5F Xx;
    e MINSD PF2 0x5D Xx; e MAXSD PF2 0x5F Xx;
    e HADDPS PF2 0x7C Xx;
    e SHUFPS PNone 0xC6 Xx_imm8;
    e UNPCKHPS PNone 0x15 Xx; e UNPCKLPD P66 0x14 Xx;
    e PCMPEQB P66 0x74 Xx; e PCMPEQD P66 0x76 Xx; e PCMPGTD P66 0x66 Xx;
    e PMAXUB P66 0xDE Xx; e PMINUB P66 0xDA Xx;
    { mnem = PMAXSD; pp = P66; map = M0F38; op = 0x3D; kind = Xx };
    { mnem = PMINSD; pp = P66; map = M0F38; op = 0x39; kind = Xx };
    { mnem = PSHUFB; pp = P66; map = M0F38; op = 0x00; kind = Xx };
    e PACKSSDW P66 0x6B Xx;
    { mnem = PALIGNR; pp = P66; map = M0F3A; op = 0x0F; kind = Xx_imm8 };
    { mnem = ROUNDSD; pp = P66; map = M0F3A; op = 0x0B; kind = Xx_imm8 };
    e PSLLDQ P66 0x73 (Grp_imm8 7); e PSRLDQ P66 0x73 (Grp_imm8 3);
    e CVTDQ2PS PNone 0x5B Xx; e CVTPS2DQ P66 0x5B Xx;
    e CVTTPS2DQ PF3 0x5B Xx ]

(* [group n slots rows] files every row under each of its slots in an
   array of [n] lists, keeping table order within a slot. *)
let group n slots rows =
  let a = Array.make n [] in
  List.iter
    (fun r -> List.iter (fun s -> a.(s) <- r :: a.(s)) (slots r))
    (List.rev rows);
  a

let by_mnem =
  group Inst.n_mnemonics (fun x -> [ Inst.mnemonic_index x.mnem ]) entries

let find_by_mnem m = by_mnem.(Inst.mnemonic_index m)

let pp_index = function PNone -> 0 | P66 -> 1 | PF2 -> 2 | PF3 -> 3
let map_index = function M0F -> 0 | M0F38 -> 1 | M0F3A -> 2

let opcode_slot pp map op = (((pp_index pp * 3) + map_index map) lsl 8) lor op

let by_opcode =
  group (4 * 3 * 256) (fun x -> [ opcode_slot x.pp x.map x.op ]) entries

let find_by_opcode pp map op =
  if op land lnot 0xFF <> 0 then [] else by_opcode.(opcode_slot pp map op)

type vkind =
  | Vrm
  | Vrm_store
  | Vrvm
  | Vgpr_rvm  (* ANDN-style: dst(reg), src1(vvvv), src2(rm); GPR operands *)
  | Vgpr_rmv  (* SHLX-style: dst(reg), src(rm), count(vvvv); GPR operands *)

type ventry = {
  vmnem : Inst.mnemonic;
  vpp : int;
  vmap : int;
  vop : int;
  vw : bool option;
  vkind : vkind;
}

let v vmnem vpp vop vkind = { vmnem; vpp; vmap = 1; vop; vw = None; vkind }

let ventries =
  let open Inst in
  [ v VMOVAPS 0 0x28 Vrm; v VMOVAPS 0 0x29 Vrm_store;
    v VMOVUPS 0 0x10 Vrm; v VMOVUPS 0 0x11 Vrm_store;
    v VADDPS 0 0x58 Vrvm; v VADDPD 1 0x58 Vrvm;
    v VSUBPS 0 0x5C Vrvm;
    v VMULPS 0 0x59 Vrvm; v VMULPD 1 0x59 Vrvm;
    v VDIVPS 0 0x5E Vrvm;
    v VSQRTPS 0 0x51 Vrm;
    v VXORPS 0 0x57 Vrvm; v VANDPS 0 0x54 Vrvm;
    v VPXOR 1 0xEF Vrvm; v VPADDD 1 0xFE Vrvm;
    { vmnem = VPMULLD; vpp = 1; vmap = 2; vop = 0x40; vw = None; vkind = Vrvm };
    { vmnem = VFMADD231PS; vpp = 1; vmap = 2; vop = 0xB8; vw = Some false; vkind = Vrvm };
    { vmnem = VFMADD231PD; vpp = 1; vmap = 2; vop = 0xB8; vw = Some true; vkind = Vrvm };
    { vmnem = VFMADD231SS; vpp = 1; vmap = 2; vop = 0xB9; vw = Some false; vkind = Vrvm };
    { vmnem = VFMADD231SD; vpp = 1; vmap = 2; vop = 0xB9; vw = Some true; vkind = Vrvm };
    { vmnem = VFMADD132PS; vpp = 1; vmap = 2; vop = 0x98; vw = Some false; vkind = Vrvm };
    { vmnem = VFMADD213PS; vpp = 1; vmap = 2; vop = 0xA8; vw = Some false; vkind = Vrvm };
    { vmnem = VMOVDQA; vpp = 1; vmap = 1; vop = 0x6F; vw = None; vkind = Vrm };
    { vmnem = VMOVDQA; vpp = 1; vmap = 1; vop = 0x7F; vw = None; vkind = Vrm_store };
    { vmnem = VMOVDQU; vpp = 2; vmap = 1; vop = 0x6F; vw = None; vkind = Vrm };
    { vmnem = VMOVDQU; vpp = 2; vmap = 1; vop = 0x7F; vw = None; vkind = Vrm_store };
    v VMINPS 0 0x5D Vrvm; v VMAXPS 0 0x5F Vrvm;
    v VPAND 1 0xDB Vrvm; v VPOR 1 0xEB Vrvm;
    (* BMI: VEX-encoded general-purpose instructions; W selects 32/64 *)
    { vmnem = ANDN; vpp = 0; vmap = 2; vop = 0xF2; vw = None; vkind = Vgpr_rvm };
    { vmnem = BZHI; vpp = 0; vmap = 2; vop = 0xF5; vw = None; vkind = Vgpr_rmv };
    { vmnem = SHLX; vpp = 1; vmap = 2; vop = 0xF7; vw = None; vkind = Vgpr_rmv };
    { vmnem = SHRX; vpp = 3; vmap = 2; vop = 0xF7; vw = None; vkind = Vgpr_rmv };
    { vmnem = SARX; vpp = 2; vmap = 2; vop = 0xF7; vw = None; vkind = Vgpr_rmv } ]

let vby_mnem =
  group Inst.n_mnemonics (fun x -> [ Inst.mnemonic_index x.vmnem ]) ventries

let vfind_by_mnem m = vby_mnem.(Inst.mnemonic_index m)

(* VEX.pp is two bits and the decoder's map field five, but only maps
   0-3 are indexed: the table uses 1-3 and every other map misses. *)
let vopcode_slot ~pp ~map ~op ~w =
  (((((pp * 4) + map) lsl 8) lor op) lsl 1) lor Bool.to_int w

let vby_opcode =
  group (4 * 4 * 256 * 2)
    (fun x ->
      let slot w = vopcode_slot ~pp:x.vpp ~map:x.vmap ~op:x.vop ~w in
      match x.vw with None -> [ slot false; slot true ] | Some w -> [ slot w ])
    ventries

let vfind_by_opcode ~pp ~map ~op ~w =
  if pp land lnot 3 <> 0 || map land lnot 3 <> 0 || op land lnot 0xFF <> 0
  then None
  else
    match vby_opcode.(vopcode_slot ~pp ~map ~op ~w) with
    | x :: _ -> Some x
    | [] -> None
