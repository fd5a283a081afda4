type resource =
  | Reg of Register.t
  | Flags

let resource_equal a b =
  match a, b with
  | Flags, Flags -> true
  | Reg (Register.Gpr (w, g)), Reg (Register.Gpr (w', g')) -> w = w' && g = g'
  | Reg (Register.Xmm n), Reg (Register.Xmm n')
  | Reg (Register.Ymm n), Reg (Register.Ymm n') -> n = n'
  | _ -> false

let pp_resource fmt = function
  | Reg r -> Register.pp fmt r
  | Flags -> Format.pp_print_string fmt "flags"

(* The read and write sets are built back to front in one accumulator:
   [add] conses a resource unless it is already there (so the first
   occurrence wins), and the caller reverses once at the end.  The
   full-width resources are shared, so [reg] allocates nothing. *)

let gpr_res =
  Array.of_list
    (List.map (fun g -> Reg (Register.Gpr (Register.W64, g))) Register.all_gprs)

let vec_res = Array.init 16 (fun n -> Reg (Register.Ymm n))

let gpr64 g = gpr_res.(Register.gpr_index g)

let reg r =
  match r with
  | Register.Gpr (_, g) -> gpr64 g
  | (Register.Xmm n | Register.Ymm n) when n >= 0 && n < 16 -> vec_res.(n)
  | _ -> Reg (Register.full r)

let rec mem r = function
  | [] -> false
  | x :: rest -> resource_equal r x || mem r rest

let add r acc = if mem r acc then acc else r :: acc

(* the register of operand [n], if it is one *)
let rec op_reg ops n acc =
  match ops with
  | [] -> acc
  | Operand.Reg r :: _ when n = 0 -> add (reg r) acc
  | _ :: rest -> if n = 0 then acc else op_reg rest (n - 1) acc

let r0 ops acc = op_reg ops 0 acc
let r1 ops acc = op_reg ops 1 acc
let r2 ops acc = op_reg ops 2 acc
let r01 ops acc = r1 ops (r0 ops acc)

(* Address registers of all memory operands: always reads. *)
let rec addr_reads ops acc =
  match ops with
  | [] -> acc
  | Operand.Mem m :: rest ->
    let acc =
      match m.Operand.base with Some g -> add (gpr64 g) acc | None -> acc
    in
    let acc =
      match m.Operand.index with Some (g, _) -> add (gpr64 g) acc | None -> acc
    in
    addr_reads rest acc
  | _ :: rest -> addr_reads rest acc

(* Value roles per mnemonic: which operand positions are read / written,
   plus implicit resources. The scalar-SSE merge rule: a reg-reg scalar
   operation also reads its destination (the upper lanes merge). *)

let rax = gpr64 Register.RAX
let rdx = gpr64 Register.RDX
let rsp = gpr64 Register.RSP

(* movss/movsd/cvt* with a register source merge into dst *)
let scalar_merge ops acc =
  match ops with
  | Operand.Reg r :: Operand.Reg _ :: _ -> add (reg r) acc
  | _ -> acc

let reads i =
  let open Inst in
  let ops = i.ops in
  let explicit =
    match i.mnem with
    | ADD | SUB | AND | OR | XOR | SHL | SHR | SAR | ROL | ROR -> r01 ops []
    | ADC | SBB -> add Flags (r01 ops [])
    | CMP | TEST | UCOMISS | UCOMISD -> r01 ops []
    | MOV | MOVZX | MOVSX | MOVSXD | BSF | BSR | POPCNT | LZCNT | TZCNT
    | SQRTPS | SQRTPD | PSHUFD | VSQRTPS | VMOVAPS | VMOVUPS
    | MOVAPS | MOVUPS | MOVAPD | MOVD | MOVQ ->
      r1 ops []
    | MOVSS | MOVSD | CVTSI2SD | CVTSI2SS | CVTSS2SD | CVTSD2SS ->
      r1 ops (scalar_merge ops [])
    | CVTTSD2SI | CVTDQ2PS | CVTPS2DQ | CVTTPS2DQ -> r1 ops []
    | SQRTSS | SQRTSD -> r1 ops (scalar_merge ops [])
    | LEA -> []
    | CWDE | CDQE -> [ rax ]
    | SHLD | SHRD -> r01 ops []
    | BT | BTS | BTR | BTC -> r01 ops []
    | MOVBE | MOVDQA | MOVDQU | VMOVDQA | VMOVDQU -> r1 ops []
    | CLC | STC -> []
    | CMC -> [ Flags ]
    | ANDN | BZHI | SHLX | SHRX | SARX -> r2 ops (r1 ops [])
    | INC | DEC | NEG | NOT | BSWAP -> r0 ops []
    | IMUL ->
      (match ops with
       | [ _; _ ] -> r01 ops [] (* dst * src *)
       | _ -> r1 ops [] (* dst = src * imm *))
    | MUL -> add rax (r0 ops [])
    | DIV | IDIV -> add rdx (add rax (r0 ops []))
    | XCHG -> r01 ops []
    | PUSH -> add rsp (r0 ops [])
    | POP -> [ rsp ]
    | CDQ | CQO -> [ rax ]
    | NOP | NOPL | JMP -> []
    | Jcc _ | SETcc _ -> [ Flags ]
    | CMOVcc _ -> r01 ops [ Flags ]
    | ADDPS | ADDPD | ADDSS | ADDSD | SUBPS | SUBPD | SUBSS | SUBSD
    | MULPS | MULPD | MULSS | MULSD | DIVPS | DIVPD | DIVSS | DIVSD
    | MINPS | MAXPS | MINPD | MAXPD | MINSS | MAXSS | MINSD | MAXSD
    | ANDPS | ANDPD | ORPS | XORPS | XORPD
    | PXOR | POR | PAND | PADDB | PADDD | PADDQ | PSUBD
    | PMULLD | PMULUDQ | PUNPCKLDQ
    | PCMPEQB | PCMPEQD | PCMPGTD | PMAXSD | PMINSD | PMAXUB | PMINUB
    | PSHUFB | PALIGNR | PACKSSDW | HADDPS | ROUNDSD
    | SHUFPS | UNPCKHPS | UNPCKLPD ->
      r01 ops []
    | PSLLD | PSRLD | PSLLDQ | PSRLDQ -> r0 ops []
    | VADDPS | VADDPD | VSUBPS | VMULPS | VMULPD | VDIVPS | VXORPS
    | VANDPS | VMINPS | VMAXPS | VPXOR | VPADDD | VPMULLD | VPAND | VPOR ->
      r2 ops (r1 ops [])
    | VFMADD231PS | VFMADD231PD | VFMADD231SS | VFMADD231SD
    | VFMADD132PS | VFMADD213PS ->
      r2 ops (r01 ops [])
  in
  List.rev (addr_reads ops explicit)

let writes i =
  let open Inst in
  let ops = i.ops in
  let result =
    match i.mnem with
    | ADD | SUB | ADC | SBB | AND | OR | XOR -> add Flags (r0 ops [])
    | CMP | TEST | UCOMISS | UCOMISD -> [ Flags ]
    | MOV | MOVZX | MOVSX | MOVSXD | LEA | CMOVcc _ -> r0 ops []
    | SETcc _ -> r0 ops []
    | INC | DEC | NEG -> add Flags (r0 ops [])
    | NOT | BSWAP -> r0 ops []
    | IMUL -> add Flags (r0 ops [])
    | MUL | DIV | IDIV -> [ Flags; rdx; rax ]
    | SHL | SHR | SAR | ROL | ROR -> add Flags (r0 ops [])
    | XCHG -> r01 ops []
    | PUSH -> [ rsp ]
    | POP -> add rsp (r0 ops [])
    | BSF | BSR | POPCNT | LZCNT | TZCNT -> add Flags (r0 ops [])
    | CDQ | CQO -> [ rdx ]
    | CWDE | CDQE -> [ rax ]
    | SHLD | SHRD -> add Flags (r0 ops [])
    | BT -> [ Flags ]
    | BTS | BTR | BTC -> add Flags (r0 ops [])
    | MOVBE -> r0 ops []
    | CLC | STC | CMC -> [ Flags ]
    | ANDN | BZHI -> add Flags (r0 ops [])
    | SHLX | SHRX | SARX -> r0 ops []
    | NOP | NOPL | JMP | Jcc _ -> []
    | MOVAPS | MOVUPS | MOVAPD | MOVSS | MOVSD | MOVDQA | MOVDQU
    | MOVD | MOVQ
    | ADDPS | ADDPD | ADDSS | ADDSD | SUBPS | SUBPD | SUBSS | SUBSD
    | MULPS | MULPD | MULSS | MULSD | DIVPS | DIVPD | DIVSS | DIVSD
    | MINPS | MAXPS | MINPD | MAXPD | MINSS | MAXSS | MINSD | MAXSD
    | SQRTPS | SQRTPD | SQRTSS | SQRTSD
    | ANDPS | ANDPD | ORPS | XORPS | XORPD
    | HADDPS | ROUNDSD | SHUFPS | UNPCKHPS | UNPCKLPD
    | PXOR | POR | PAND | PADDB | PADDD | PADDQ | PSUBD
    | PMULLD | PMULUDQ | PUNPCKLDQ | PSHUFD | PSLLD | PSRLD
    | PSLLDQ | PSRLDQ
    | PCMPEQB | PCMPEQD | PCMPGTD | PMAXSD | PMINSD | PMAXUB | PMINUB
    | PSHUFB | PALIGNR | PACKSSDW
    | CVTSI2SD | CVTSI2SS | CVTTSD2SI | CVTSS2SD | CVTSD2SS
    | CVTDQ2PS | CVTPS2DQ | CVTTPS2DQ
    | VMOVAPS | VMOVUPS | VMOVDQA | VMOVDQU
    | VADDPS | VADDPD | VSUBPS | VMULPS | VMULPD
    | VDIVPS | VSQRTPS | VXORPS | VANDPS | VMINPS | VMAXPS
    | VPXOR | VPADDD | VPMULLD | VPAND | VPOR
    | VFMADD231PS | VFMADD231PD | VFMADD231SS | VFMADD231SD
    | VFMADD132PS | VFMADD213PS ->
      r0 ops []
  in
  List.rev result
