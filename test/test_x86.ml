open Facile_x86

let hex s =
  String.concat " "
    (List.map (fun c -> Printf.sprintf "%02X" (Char.code c))
       (List.init (String.length s) (String.get s)))

let check_bytes name inst expected =
  Alcotest.test_case name `Quick (fun () ->
      let e = Encode.encode inst in
      Alcotest.(check string) name expected (hex e.Encode.bytes))

let parse s =
  match Asm.parse_inst s with
  | Ok i -> i
  | Error m -> Alcotest.failf "cannot parse %S: %s" s m

let check_asm name asm expected = check_bytes name (parse asm) expected

(* ------------------------------------------------------------------ *)

let golden_tests =
  [ check_asm "add rax, rbx" "add rax, rbx" "48 01 D8";
    check_asm "add eax, ebx" "add eax, ebx" "01 D8";
    check_asm "add al, bl" "add al, bl" "00 D8";
    check_asm "mov eax, 1" "mov eax, 1" "B8 01 00 00 00";
    check_asm "mov rax, big" "mov rax, 0x1122334455667788"
      "48 B8 88 77 66 55 44 33 22 11";
    check_asm "lea rax, [rbx+rcx*4+8]" "lea rax, [rbx+rcx*4+8]"
      "48 8D 44 8B 08";
    check_asm "nop" "nop" "90";
    check_asm "jmp -5" "jmp -5" "EB FB";
    check_asm "add ax, 0x1234 (LCP)" "add ax, 0x1234" "66 81 C0 34 12";
    check_asm "add rax, 1 (imm8 form)" "add rax, 1" "48 83 C0 01";
    check_asm "movaps xmm1, xmm2" "movaps xmm1, xmm2" "0F 28 CA";
    check_asm "addsd xmm0, xmm1" "addsd xmm0, xmm1" "F2 0F 58 C1";
    check_asm "vaddps ymm1, ymm2, ymm3" "vaddps ymm1, ymm2, ymm3"
      "C5 EC 58 CB";
    check_asm "vfmadd231ps xmm1, xmm2, xmm3" "vfmadd231ps xmm1, xmm2, xmm3"
      "C4 E2 69 B8 CB";
    check_asm "pmulld xmm1, xmm2" "pmulld xmm1, xmm2" "66 0F 38 40 CA";
    check_asm "push rax" "push rax" "50";
    check_asm "pop r12" "pop r12" "41 5C";
    check_asm "mov sil, 1 (forced REX)" "mov sil, 1" "40 B6 01";
    check_asm "cmp [rsp+4], 10" "cmp dword ptr [rsp+4], 10"
      "83 7C 24 04 0A";
    check_asm "imul rax, rbx, 1000" "imul rax, rbx, 1000"
      "48 69 C3 E8 03 00 00";
    check_asm "movzx eax, [rbp]" "movzx eax, byte ptr [rbp]" "0F B6 45 00";
    check_asm "div rcx" "div rcx" "48 F7 F1";
    check_asm "shl rdx, 3" "shl rdx, 3" "48 C1 E2 03";
    check_asm "sar ecx, cl" "sar ecx, cl" "D3 F9";
    check_asm "jne rel32" "jne -1000" "0F 85 18 FC FF FF";
    check_asm "jne rel8" "jne -12" "75 F4";
    check_asm "setg al" "setg al" "0F 9F C0";
    check_asm "cmovle r10d, r11d" "cmovle r10d, r11d" "45 0F 4E D3";
    check_asm "movsxd rdx, eax" "movsxd rdx, eax" "48 63 D0";
    check_asm "cqo" "cqo" "48 99";
    check_asm "popcnt r9, r10" "popcnt r9, r10" "F3 4D 0F B8 CA";
    check_asm "movd xmm3, edi" "movd xmm3, edi" "66 0F 6E DF";
    check_asm "movq xmm3, rdi" "movq xmm3, rdi" "66 48 0F 6E DF";
    check_asm "pshufd xmm1, xmm2, 0x1b" "pshufd xmm1, xmm2, 0x1b"
      "66 0F 70 CA 1B";
    check_asm "pslld xmm5, 7" "pslld xmm5, 7" "66 0F 72 F5 07";
    check_asm "mov [rax], ebx" "mov dword ptr [rax], ebx" "89 18";
    check_asm "mov r13, [r14+r15*8]" "mov r13, qword ptr [r14+r15*8]"
      "4F 8B 2C FE";
    check_asm "xchg rbx, rcx" "xchg rbx, rcx" "48 87 CB";
    check_asm "bswap r12" "bswap r12" "49 0F CC";
    check_asm "nopl [rax]" "nopl dword ptr [rax]" "0F 1F 00";
    (* extended subset *)
    check_asm "shld eax, ebx, 5" "shld eax, ebx, 5" "0F A4 D8 05";
    check_asm "bt rax, rbx" "bt rax, rbx" "48 0F A3 D8";
    check_asm "bts eax, 3" "bts eax, 3" "0F BA E8 03";
    check_asm "movbe eax, [rbx]" "movbe eax, dword ptr [rbx]" "0F 38 F0 03";
    check_asm "movbe [rbx], eax" "movbe dword ptr [rbx], eax" "0F 38 F1 03";
    check_asm "andn eax, ebx, ecx" "andn eax, ebx, ecx" "C4 E2 60 F2 C1";
    check_asm "shlx eax, ebx, ecx" "shlx eax, ebx, ecx" "C4 E2 71 F7 C3";
    check_asm "palignr xmm1, xmm2, 5" "palignr xmm1, xmm2, 5"
      "66 0F 3A 0F CA 05";
    check_asm "roundsd xmm1, xmm2, 1" "roundsd xmm1, xmm2, 1"
      "66 0F 3A 0B CA 01";
    check_asm "movdqa xmm1, xmm2" "movdqa xmm1, xmm2" "66 0F 6F CA";
    check_asm "movdqu xmm1, [rax]" "movdqu xmmword ptr [rax], xmm1"
      "F3 0F 7F 08";
    check_asm "cwde" "cwde" "98";
    check_asm "cdqe" "cdqe" "48 98";
    check_asm "clc" "clc" "F8";
    check_asm "pslldq xmm3, 4" "pslldq xmm3, 4" "66 0F 73 FB 04";
    check_asm "shufps xmm0, xmm1, 0x44" "shufps xmm0, xmm1, 0x44"
      "0F C6 C1 44";
    check_asm "haddps xmm0, xmm1" "haddps xmm0, xmm1" "F2 0F 7C C1";
    check_asm "pmaxsd xmm0, xmm1" "pmaxsd xmm0, xmm1" "66 0F 38 3D C1";
    check_asm "vpand ymm1, ymm2, ymm3" "vpand ymm1, ymm2, ymm3" "C5 ED DB CB";
    check_asm "vmovdqu ymm1, ymm2" "vmovdqu ymm1, ymm2" "C5 FE 6F CA" ]

(* ------------------------------------------------------------------ *)

let layout_tests =
  [ Alcotest.test_case "LCP flags" `Quick (fun () ->
        let lcp s = (Encode.encode (parse s)).Encode.has_lcp in
        Alcotest.(check bool) "add ax, imm16" true (lcp "add ax, 0x1234");
        Alcotest.(check bool) "mov bx, imm16" true (lcp "mov bx, 300");
        Alcotest.(check bool) "add ax, small imm8" false (lcp "add ax, 4");
        Alcotest.(check bool) "add eax, imm32" false (lcp "add eax, 0x1234");
        Alcotest.(check bool) "add ax, bx" false (lcp "add ax, bx");
        Alcotest.(check bool) "addpd (mandatory 66)" false
          (lcp "addpd xmm0, xmm1"));
    Alcotest.test_case "opcode offsets" `Quick (fun () ->
        let off s = (Encode.encode (parse s)).Encode.opcode_off in
        Alcotest.(check int) "add eax, ebx" 0 (off "add eax, ebx");
        Alcotest.(check int) "add rax, rbx (REX)" 1 (off "add rax, rbx");
        Alcotest.(check int) "add ax, bx (66)" 1 (off "add ax, bx");
        Alcotest.(check int) "popcnt r9, r10 (F3+REX)" 2
          (off "popcnt r9, r10");
        Alcotest.(check int) "addsd (F2)" 1 (off "addsd xmm0, xmm1");
        Alcotest.(check int) "vaddps (VEX)" 0 (off "vaddps ymm1, ymm2, ymm3")) ]

(* ------------------------------------------------------------------ *)
(* Round-trip: decode (encode i) = i for a large generated sample.     *)

let roundtrip_profile profile =
  Alcotest.test_case
    (Printf.sprintf "roundtrip %s" (Facile_bhive.Genblock.profile_name profile))
    `Quick
    (fun () ->
      let rng = Facile_bhive.Prng.create 42 in
      for _k = 1 to 1500 do
        let inst = Facile_bhive.Genblock.random_inst rng profile ~allow_fma:true in
        let e = Encode.encode inst in
        let len = String.length e.Encode.bytes in
        if len < 1 || len > 15 then
          Alcotest.failf "bad length %d for %s" len (Inst.to_string inst);
        let decoded, dlen = Decode.decode_one e.Encode.bytes ~pos:0 in
        if dlen <> len then
          Alcotest.failf "length mismatch for %s: %d vs %d"
            (Inst.to_string inst) dlen len;
        if not (Inst.equal decoded inst) then
          Alcotest.failf "roundtrip: %s became %s (bytes %s)"
            (Inst.to_string inst) (Inst.to_string decoded)
            (hex e.Encode.bytes)
      done)

let roundtrip_tests = List.map roundtrip_profile Facile_bhive.Genblock.all_profiles

let block_roundtrip =
  Alcotest.test_case "block decode = encode layouts" `Quick (fun () ->
      let cases =
        Facile_bhive.Suite.corpus ~seed:7 ~size:100 ()
      in
      List.iter
        (fun (c : Facile_bhive.Suite.case) ->
          let bytes, layouts = Encode.encode_block c.Facile_bhive.Suite.loop in
          let layouts' = Decode.decode_block bytes in
          Alcotest.(check int)
            "layout count"
            (List.length layouts) (List.length layouts');
          List.iter2
            (fun (a : Encode.layout) (b : Encode.layout) ->
              assert (Inst.equal a.Encode.inst b.Encode.inst);
              assert (a.Encode.off = b.Encode.off);
              assert (a.Encode.len = b.Encode.len);
              assert (a.Encode.nominal_opcode_off = b.Encode.nominal_opcode_off);
              assert (a.Encode.lcp = b.Encode.lcp))
            layouts layouts')
        cases)

(* ------------------------------------------------------------------ *)
(* Assembly printer/parser round-trip.                                 *)

let asm_roundtrip =
  Alcotest.test_case "asm print/parse roundtrip" `Quick (fun () ->
      let rng = Facile_bhive.Prng.create 99 in
      List.iter
        (fun profile ->
          for _k = 1 to 400 do
            let inst =
              Facile_bhive.Genblock.random_inst rng profile ~allow_fma:true
            in
            let printed = Asm.print_inst inst in
            match Asm.parse_inst printed with
            | Ok inst' ->
              if not (Inst.equal inst inst') then
                Alcotest.failf "asm roundtrip: %S reparsed as %S" printed
                  (Asm.print_inst inst')
            | Error m -> Alcotest.failf "cannot reparse %S: %s" printed m
          done)
        Facile_bhive.Genblock.all_profiles)

let register_names =
  Alcotest.test_case "register names" `Quick (fun () ->
      let check s r =
        Alcotest.(check string) s s (Register.name r);
        match Register.of_name s with
        | Some r' -> assert (Register.equal r r')
        | None -> Alcotest.failf "cannot parse register %s" s
      in
      check "rax" (Register.Gpr (Register.W64, Register.RAX));
      check "eax" (Register.Gpr (Register.W32, Register.RAX));
      check "ax" (Register.Gpr (Register.W16, Register.RAX));
      check "al" (Register.Gpr (Register.W8, Register.RAX));
      check "sil" (Register.Gpr (Register.W8, Register.RSI));
      check "r8b" (Register.Gpr (Register.W8, Register.R8));
      check "r10d" (Register.Gpr (Register.W32, Register.R10));
      check "r15" (Register.Gpr (Register.W64, Register.R15));
      check "xmm13" (Register.Xmm 13);
      check "ymm2" (Register.Ymm 2))

let semantics_tests =
  [ Alcotest.test_case "reads/writes" `Quick (fun () ->
        let r = parse "add rax, rbx" in
        let reads = Semantics.reads r and writes = Semantics.writes r in
        let reg name =
          Semantics.Reg (Option.get (Register.of_name name))
        in
        assert (List.mem (reg "rax") reads);
        assert (List.mem (reg "rbx") reads);
        assert (List.mem (reg "rax") writes);
        assert (List.mem Semantics.Flags writes);
        let c = parse "cmovne rcx, rdx" in
        assert (List.mem Semantics.Flags (Semantics.reads c));
        assert (List.mem (reg "rcx") (Semantics.reads c));
        let l = parse "mov rax, qword ptr [rbx+rcx*2]" in
        assert (List.mem (reg "rbx") (Semantics.reads l));
        assert (List.mem (reg "rcx") (Semantics.reads l));
        assert (not (List.mem (reg "rax") (Semantics.reads l)));
        let div = parse "div rcx" in
        assert (List.mem (reg "rax") (Semantics.reads div));
        assert (List.mem (reg "rdx") (Semantics.writes div));
        (* partial registers normalize to full width *)
        let p = parse "add al, bl" in
        assert (List.mem (reg "rax") (Semantics.writes p))) ]

(* Decoder robustness: arbitrary bytes either decode (within bounds) or
   raise Decode_error — never any other exception, never a length beyond
   the input. *)
let decoder_fuzz =
  Alcotest.test_case "decoder never crashes on random bytes" `Quick (fun () ->
      let rng = Facile_bhive.Prng.create 1234 in
      for _ = 1 to 20000 do
        let len = 1 + Facile_bhive.Prng.int rng 18 in
        let bytes =
          String.init len (fun _ -> Char.chr (Facile_bhive.Prng.int rng 256))
        in
        match Decode.decode_one bytes ~pos:0 with
        | _, dlen ->
          if dlen < 1 || dlen > String.length bytes then
            Alcotest.failf "bad decode length %d of %d" dlen
              (String.length bytes)
        | exception Decode.Decode_error _ -> ()
      done)

(* Mutating one byte of a valid encoding must not break the decoder. *)
let decoder_mutation =
  Alcotest.test_case "single-byte mutations are handled" `Quick (fun () ->
      let rng = Facile_bhive.Prng.create 77 in
      for _ = 1 to 2000 do
        let inst =
          Facile_bhive.Genblock.random_inst rng Facile_bhive.Genblock.Mixed
            ~allow_fma:true
        in
        let e = Encode.encode inst in
        let pos = Facile_bhive.Prng.int rng (String.length e.Encode.bytes) in
        let mutated =
          String.mapi
            (fun i c ->
              if i = pos then Char.chr (Facile_bhive.Prng.int rng 256) else c)
            e.Encode.bytes
        in
        match Decode.decode_one mutated ~pos:0 with
        | _ -> ()
        | exception Decode.Decode_error _ -> ()
      done)

(* qcheck variants of the robustness property: fully arbitrary strings
   (not just short random byte runs) through the block-level entry
   points — the only acceptable exception is Decode_error. *)
let qcheck_decode_no_crash =
  QCheck.Test.make ~count:2000
    ~name:"decode_block/instructions raise only Decode_error"
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun bytes ->
      let probe f =
        match f bytes with
        | _ -> true
        | exception Decode.Decode_error (_, off) ->
          (* the reported offset points into (or just past) the input *)
          off >= 0 && off <= String.length bytes
        | exception _ -> false
      in
      probe Decode.decode_block && probe Decode.instructions)

(* ------------------------------------------------------------------ *)
(* Differential tests: the block decoder against the composition it    *)
(* stands for, the SSE/VEX table indexes against linear scans of the   *)
(* tables, and block building from bytes against building from the    *)
(* instructions.                                                       *)

let mismatch_msg = "re-encoding mismatch (non-canonical input)"

(* decode every instruction, re-encode the block, compare the bytes *)
let reference_decode_block s =
  let bytes, layouts = Encode.encode_block (Decode.instructions s) in
  if bytes = s then Some layouts else None

(* Oracle for the mismatch position: walk the input one instruction at
   a time and re-encode each on its own. *)
let first_noncanonical s =
  let rec go pos =
    if pos >= String.length s then -1
    else
      let inst, len = Decode.decode_one s ~pos in
      if (Encode.encode inst).Encode.bytes <> String.sub s pos len then pos
      else go (pos + len)
  in
  go 0

let decode_block_agrees s =
  let outcome f = match f s with v -> Ok v | exception e -> Error e in
  match outcome Decode.decode_block, outcome reference_decode_block with
  | Ok l, Ok (Some l') -> l = l'
  | Error (Decode.Decode_error (msg, pos)), Ok None ->
    msg = mismatch_msg && pos = first_noncanonical s
  | Error e, Error e' -> e = e'
  | Ok _, _ | Error _, Ok _ ->
    QCheck.Test.fail_reportf "decode_block and the reference disagree on %S" s

(* a Genblock block's encoding with one byte replaced *)
let gen_mutated_block =
  let open QCheck.Gen in
  let* seed = int_bound 100_000 in
  let* profile = oneofl Facile_bhive.Genblock.all_profiles in
  let* len = int_range 1 10 in
  let* at = nat in
  let+ byte = int_bound 255 in
  let rng = Facile_bhive.Prng.create (seed + 1) in
  let insts = Facile_bhive.Genblock.body rng profile ~allow_fma:true ~len in
  let bytes, _ = Encode.encode_block insts in
  let at = at mod String.length bytes in
  String.mapi (fun i c -> if i = at then Char.chr byte else c) bytes

let qcheck_decode_block_arbitrary =
  QCheck.Test.make ~count:3000
    ~name:"decode_block = decode, re-encode, compare (arbitrary bytes)"
    QCheck.(string_of_size Gen.(0 -- 64))
    decode_block_agrees

let qcheck_decode_block_mutated =
  QCheck.Test.make ~count:3000
    ~name:"decode_block = decode, re-encode, compare (mutated blocks)"
    (QCheck.make gen_mutated_block ~print:(Printf.sprintf "%S"))
    decode_block_agrees

let mismatch_position =
  Alcotest.test_case "a mismatch names the first non-canonical instruction"
    `Quick (fun () ->
      let pos s =
        match Decode.decode_block s with
        | _ -> Alcotest.failf "%S decoded" s
        | exception Decode.Decode_error (msg, p) -> (msg, p)
      in
      (* add rax, rax; then add eax, eax in its non-canonical 03 /r form *)
      Alcotest.(check (pair string int)) "second instruction"
        (mismatch_msg, 3) (pos "\x48\x01\xc0\x03\xc0");
      Alcotest.(check (pair string int)) "first instruction"
        (mismatch_msg, 0) (pos "\x03\xc0\x48\x01\xc0");
      (* a decode error anywhere wins over an earlier mismatch *)
      Alcotest.(check (pair string int)) "decode error wins"
        ("truncated instruction", 2) (pos "\x03\xc0\xff"))

let sse_indexes_match_scans =
  Alcotest.test_case "indexed SSE/VEX lookups = linear scans of the tables"
    `Quick (fun () ->
      let open Sse_table in
      let same what a b =
        if not (List.equal ( == ) a b) then Alcotest.failf "%s differs" what
      in
      let codes = List.map Inst.mnemonic_index Inst.all_mnemonics in
      Alcotest.(check (list int)) "mnemonic_index is a bijection"
        (List.init Inst.n_mnemonics Fun.id) (List.sort_uniq compare codes);
      Alcotest.(check int) "no mnemonic twice" Inst.n_mnemonics
        (List.length codes);
      List.iter
        (fun m ->
          let name = Inst.mnemonic_name m in
          same ("find_by_mnem " ^ name) (find_by_mnem m)
            (List.filter (fun e -> e.mnem = m) entries);
          same ("vfind_by_mnem " ^ name) (vfind_by_mnem m)
            (List.filter (fun e -> e.vmnem = m) ventries))
        Inst.all_mnemonics;
      List.iter
        (fun pp ->
          List.iter
            (fun map ->
              for op = 0 to 255 do
                same
                  (Printf.sprintf "find_by_opcode %02x" op)
                  (find_by_opcode pp map op)
                  (List.filter
                     (fun e -> e.pp = pp && e.map = map && e.op = op)
                     entries)
              done)
            [ M0F; M0F38; M0F3A ])
        [ PNone; P66; PF2; PF3 ];
      for pp = 0 to 3 do
        for map = 0 to 31 do
          for op = 0 to 255 do
            List.iter
              (fun w ->
                same
                  (Printf.sprintf "vfind_by_opcode %d %d %02x %b" pp map op w)
                  (Option.to_list (vfind_by_opcode ~pp ~map ~op ~w))
                  (Option.to_list
                     (List.find_opt
                        (fun e ->
                          e.vpp = pp && e.vmap = map && e.vop = op
                          && (match e.vw with None -> true | Some b -> b = w))
                        ventries)))
              [ false; true ]
          done
        done
      done)

let qcheck_block_of_bytes =
  QCheck.Test.make ~count:100
    ~name:"Block.of_bytes (encode insts) = Block.of_instructions insts"
    QCheck.(
      make
        ~print:(fun (seed, looped, len) ->
          Printf.sprintf "seed=%d looped=%b len=%d" seed looped len)
        Gen.(triple (int_bound 100_000) bool (int_range 1 12)))
    (fun (seed, looped, len) ->
      let open Facile_core in
      let rng = Facile_bhive.Prng.create (seed + 1) in
      let profiles = Facile_bhive.Genblock.all_profiles in
      let profile = List.nth profiles (seed mod List.length profiles) in
      let body = Facile_bhive.Genblock.body rng profile ~allow_fma:false ~len in
      let insts = if looped then Facile_bhive.Genblock.looped body else body in
      let bytes, _ = Encode.encode_block insts in
      List.for_all
        (fun cfg -> Block.of_bytes cfg bytes = Block.of_instructions cfg insts)
        Facile_uarch.Config.all)

(* Hex.decode on arbitrary text: either a clean byte string that
   re-encodes to the digits we fed in, or a typed Bad_hex error whose
   position indexes the first offending character of the original
   input. *)
(* The two-pass [Hex.decode] (digit buffer, then pairs) that the
   single-pass one replaced, kept as the oracle. *)
let hex_decode_two_pass s : (string, Err.t) result =
  let digit_value c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let digits = Buffer.create (String.length s) in
  let bad = ref None in
  String.iteri
    (fun i c ->
      if !bad = None then
        match c with
        | ' ' | '\n' | '\t' | '\r' -> ()
        | c ->
          (match digit_value c with
           | Some _ -> Buffer.add_char digits c
           | None ->
             bad :=
               Some
                 (Err.v ~pos:i Err.Bad_hex
                    (Printf.sprintf "invalid hex character %C" c))))
    s;
  match !bad with
  | Some e -> Error e
  | None ->
    let clean = Buffer.contents digits in
    let n = String.length clean in
    if n mod 2 <> 0 then
      Error
        (Err.v Err.Bad_hex
           (Printf.sprintf
              "hex input must have an even number of digits, got %d" n))
    else
      Ok
        (String.init (n / 2) (fun i ->
             let hi = Option.get (digit_value clean.[2 * i]) in
             let lo = Option.get (digit_value clean.[(2 * i) + 1]) in
             Char.chr ((hi lsl 4) lor lo)))

let qcheck_hex_oracle =
  let gen =
    QCheck.Gen.(
      let ch =
        frequency
          [ 12, oneofl (List.init 22 (String.get "0123456789abcdefABCDEF"));
            3, oneofl [ ' '; '\n'; '\t'; '\r' ];
            1, char ]
      in
      string_size ~gen:ch (0 -- 64))
  in
  QCheck.Test.make ~count:5000
    ~name:"Hex.decode equals the two-pass decoder"
    (QCheck.make gen ~print:(Printf.sprintf "%S"))
    (fun s ->
      match Hex.decode s, hex_decode_two_pass s with
      | Ok a, Ok b -> String.equal a b
      | Error a, Error b ->
        a.Err.kind = b.Err.kind && a.Err.pos = b.Err.pos
        && String.equal a.Err.msg b.Err.msg
      | _ -> false)

let qcheck_hex_roundtrip =
  QCheck.Test.make ~count:2000
    ~name:"Hex.decode round-trips or errors at the right position"
    QCheck.(string_of_size Gen.(0 -- 40))
    (fun s ->
      let is_space c = c = ' ' || c = '\n' || c = '\t' || c = '\r' in
      let is_digit c =
        (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
        || (c >= 'A' && c <= 'F')
      in
      match Hex.decode s with
      | Ok bytes ->
        let digits =
          String.to_seq s
          |> Seq.filter (fun c -> not (is_space c))
          |> String.of_seq
        in
        String.length bytes * 2 = String.length digits
        && String.lowercase_ascii
             (String.concat ""
                (List.init (String.length bytes) (fun i ->
                     Printf.sprintf "%02x" (Char.code bytes.[i]))))
           = String.lowercase_ascii digits
      | Error e ->
        e.Err.kind = Err.Bad_hex
        && (match e.Err.pos with
            | Some p ->
              (* first non-space non-digit character of the input *)
              p >= 0 && p < String.length s
              && (not (is_digit s.[p]))
              && not (is_space s.[p])
            | None ->
              (* only the odd-digit-count failure carries no position *)
              String.for_all (fun c -> is_digit c || is_space c) s))

let asm_errors =
  Alcotest.test_case "asm parser rejects garbage gracefully" `Quick (fun () ->
      let bad s =
        match Asm.parse_inst s with
        | Ok i -> Alcotest.failf "%S parsed as %s" s (Inst.to_string i)
        | Error _ -> ()
      in
      bad "frobnicate rax, rbx";
      bad "add rax, [rsp+";
      bad "add xyz, rbx";
      bad "lea rax, rbx";         (* LEA needs a memory operand *)
      bad "add rax, [rsp+rsp*2]"; (* RSP cannot be an index *)
      bad "";
      (* and accepts synonyms and formatting variants *)
      let ok s =
        match Asm.parse_inst s with
        | Ok i -> i
        | Error m -> Alcotest.failf "%S rejected: %s" s m
      in
      assert (Inst.equal (ok "jz -5") (ok "je -5"));
      assert (Inst.equal (ok "jnz -5") (ok "jne -5"));
      assert (Inst.equal (ok "cmova rax, rbx") (ok "cmovnbe rax, rbx"));
      assert (Inst.equal
                (ok "mov rax, [rbx]")  (* width inferred from rax *)
                (ok "mov rax, qword ptr [rbx]"));
      assert (Inst.equal (ok "add rax , rbx") (ok "add rax, rbx"));
      (* block-level comments and separators *)
      match Asm.parse_block "add rax, rbx # comment\n\n; \nsub rcx, rdx" with
      | Ok l -> Alcotest.(check int) "two instructions" 2 (List.length l)
      | Error m -> Alcotest.failf "block rejected: %s" m)

let suite =
  [ "x86.golden", golden_tests;
    "x86.robustness",
    [ decoder_fuzz; decoder_mutation;
      QCheck_alcotest.to_alcotest qcheck_decode_no_crash;
      QCheck_alcotest.to_alcotest qcheck_hex_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_hex_oracle; asm_errors ];
    "x86.differential",
    [ QCheck_alcotest.to_alcotest qcheck_decode_block_arbitrary;
      QCheck_alcotest.to_alcotest qcheck_decode_block_mutated;
      mismatch_position; sse_indexes_match_scans;
      QCheck_alcotest.to_alcotest qcheck_block_of_bytes ];
    "x86.layout", layout_tests;
    "x86.roundtrip", block_roundtrip :: roundtrip_tests;
    "x86.asm", [ asm_roundtrip; register_names ];
    "x86.semantics", semantics_tests ]
