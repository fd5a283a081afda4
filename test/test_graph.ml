open Facile_graph

let mk n edges =
  let g = Digraph.create ~n in
  List.iter
    (fun (src, dst, weight, count) ->
      Digraph.add_edge g ~src ~dst ~weight ~count)
    edges;
  g

(* Every expected ratio here is exact in floating point, so Howard must
   return it bit for bit; Lawler's bisection only gets within 1e-6. *)
let check_ratio name g expected =
  Alcotest.test_case name `Quick (fun () ->
      (match Cycle_ratio.howard g with
       | Some r ->
         Alcotest.(check (float 0.0)) (name ^ " (howard)") expected r
       | None -> Alcotest.failf "%s: howard found no cycle" name);
      match Cycle_ratio.lawler g with
      | Some r -> Alcotest.(check (float 1e-6)) (name ^ " (lawler)") expected r
      | None -> Alcotest.failf "%s: lawler found no cycle" name)

let known_tests =
  [ check_ratio "self loop" (mk 1 [ (0, 0, 3.0, 1) ]) 3.0;
    check_ratio "two-node cycle"
      (mk 2 [ (0, 1, 2.0, 0); (1, 0, 4.0, 1) ])
      6.0;
    check_ratio "two cycles, pick max"
      (mk 4
         [ (0, 1, 2.0, 0); (1, 0, 0.0, 1);  (* ratio 2 *)
           (2, 3, 5.0, 0); (3, 2, 5.0, 2) ])
      (* ratio 5 *)
      5.0;
    check_ratio "cycle spanning two iterations"
      (mk 2 [ (0, 1, 10.0, 1); (1, 0, 0.0, 1) ])
      5.0;
    check_ratio "long chain"
      (mk 5
         [ (0, 1, 1.0, 0); (1, 2, 1.0, 0); (2, 3, 1.0, 0); (3, 4, 1.0, 0);
           (4, 0, 1.0, 1) ])
      5.0;
    (* the self-loop on 2 and 3->4->3 tie at ratio 8; node 0 reaches
       both, which once made policy iteration flip-flop until its
       guard tripped *)
    check_ratio "tied cycles"
      (mk 7
         [ (2, 2, 8.0, 1); (3, 4, 12.0, 2); (0, 4, 0.0, 1); (4, 3, 12.0, 1);
           (0, 0, 0.0, 1); (0, 0, 0.0, 1); (0, 2, 1.0, 1) ])
      8.0;
    (* a count-0, weight-0 self-loop has no ratio and must not hide the
       real cycles next to it *)
    check_ratio "zero-count loop beside a cycle"
      (mk 5 [ (4, 1, 0.0, 1); (1, 1, 0.0, 0); (4, 4, 5.0, 1) ])
      5.0;
    check_ratio "zero-count loop on the policy path"
      (mk 3 [ (0, 1, 0.0, 1); (1, 1, 0.0, 0); (0, 2, 3.0, 0); (2, 0, 0.0, 1) ])
      3.0;
    Alcotest.test_case "acyclic" `Quick (fun () ->
        let g = mk 3 [ (0, 1, 5.0, 0); (1, 2, 7.0, 1) ] in
        assert (Cycle_ratio.howard g = None);
        assert (Cycle_ratio.lawler g = None));
    Alcotest.test_case "empty graph" `Quick (fun () ->
        assert (Cycle_ratio.howard (mk 0 []) = None));
    Alcotest.test_case "critical cycle extraction" `Quick (fun () ->
        let g =
          mk 4
            [ (0, 1, 2.0, 0); (1, 0, 0.0, 1);
              (2, 3, 9.0, 0); (3, 2, 0.0, 1) ]
        in
        match Cycle_ratio.howard g with
        | Some r ->
          Alcotest.(check (float 1e-6)) "max ratio" 9.0 r;
          (match Cycle_ratio.critical_cycle g r with
           | Some edges ->
             let total_w =
               List.fold_left (fun a e -> a +. e.Digraph.weight) 0.0 edges
             in
             let total_t =
               List.fold_left (fun a e -> a + e.Digraph.count) 0 edges
             in
             Alcotest.(check (float 1e-3)) "cycle ratio"
               9.0 (total_w /. float_of_int total_t)
           | None -> Alcotest.fail "no critical cycle found")
        | None -> Alcotest.fail "no cycle found") ]

(* Property: Howard and Lawler agree on random graphs whose cycles all
   have positive iteration count (guaranteed here by giving every edge
   count >= 1). *)
let agreement =
  QCheck.Test.make ~name:"howard = lawler on random graphs" ~count:300
    QCheck.(
      pair (int_range 1 8)
        (list_of_size Gen.(int_range 0 20)
           (quad (int_range 0 7) (int_range 0 7) (int_range 0 20)
              (int_range 1 3))))
    (fun (n, edges) ->
      let g = Digraph.create ~n in
      List.iter
        (fun (s, d, w, t) ->
          (* clamp: QCheck shrinking can escape int_range bounds *)
          let t = max 1 (min 3 t) in
          if s < n && d < n then
            Digraph.add_edge g ~src:s ~dst:d ~weight:(float_of_int w) ~count:t)
        edges;
      match Cycle_ratio.howard g, Cycle_ratio.lawler g with
      | None, None -> true
      | Some a, Some b -> abs_float (a -. b) < 1e-5
      | Some a, None -> QCheck.Test.fail_reportf "howard %f, lawler none" a
      | None, Some b -> QCheck.Test.fail_reportf "howard none, lawler %f" b)

(* Property: adding an edge never decreases the maximum cycle ratio. *)
let monotone =
  QCheck.Test.make ~name:"adding edges is monotone" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 15)
           (quad (int_range 0 5) (int_range 0 5) (int_range 0 10)
              (int_range 1 2)))
        (quad (int_range 0 5) (int_range 0 5) (int_range 0 10) (int_range 1 2)))
    (fun (edges, extra) ->
      let build es =
        let g = Digraph.create ~n:6 in
        List.iter
          (fun (s, d, w, t) ->
            let t = max 1 (min 2 t) in
            Digraph.add_edge g ~src:s ~dst:d ~weight:(float_of_int w) ~count:t)
          es;
        g
      in
      let before = Cycle_ratio.howard (build edges) in
      let after = Cycle_ratio.howard (build (extra :: edges)) in
      match before, after with
      | None, _ -> true
      | Some _, None -> false
      | Some a, Some b -> b >= a -. 1e-9)

(* Exact oracle: the maximum ratio over every simple cycle with a
   positive count, by enumeration (each cycle once, from its smallest
   node). Weights are integral, so cycle sums are exact and Howard must
   match bit for bit. The same graphs check [critical_cycle]. *)
let brute_force n edges =
  let best = ref neg_infinity in
  let rec walk s u seen w t =
    List.iter
      (fun (a, b, ew, et) ->
        if a <> u then ()
        else if b = s then begin
          if t + et > 0 then
            best := Float.max !best ((w +. ew) /. float_of_int (t + et))
        end
        else if b > s && not (List.mem b seen) then
          walk s b (b :: seen) (w +. ew) (t + et))
      edges
  in
  for s = 0 to n - 1 do walk s s [ s ] 0.0 0 done;
  if !best = neg_infinity then None else Some !best

(* The ratio of [es] when it is a closed walk with a positive count. *)
let closed_ratio = function
  | [] -> None
  | first :: rest as es ->
    let closed =
      List.for_all2
        (fun e e' -> e.Digraph.dst = e'.Digraph.src)
        es (rest @ [ first ])
    in
    let w = List.fold_left (fun a e -> a +. e.Digraph.weight) 0.0 es in
    let t = List.fold_left (fun a e -> a + e.Digraph.count) 0 es in
    if closed && t > 0 then Some (w /. float_of_int t) else None

let oracle =
  QCheck.Test.make ~name:"howard = max over enumerated simple cycles"
    ~count:5000
    QCheck.(
      pair (int_range 1 7)
        (list_of_size Gen.(int_range 0 16)
           (quad (int_range 0 6) (int_range 0 6) (int_range 0 12)
              (int_range 0 2))))
    (fun (n, edges) ->
      (* clamp: QCheck shrinking can escape int_range bounds *)
      let edges =
        List.filter_map
          (fun (s, d, w, t) ->
            let t = max 0 (min 2 t) in
            let w = if t = 0 then 0.0 else float_of_int (max 0 (min 12 w)) in
            if s < n && d < n then Some (s, d, w, t) else None)
          edges
      in
      let g = mk n edges in
      match Cycle_ratio.howard g, brute_force n edges with
      | None, None -> true
      | Some a, Some b when Float.equal a b ->
        (match Option.bind (Cycle_ratio.critical_cycle g a) closed_ratio with
         | Some c when abs_float (c -. a) <= 1e-6 -> true
         | _ -> QCheck.Test.fail_reportf "critical_cycle misses ratio %h" a)
      | a, b ->
        let pp = function None -> "none" | Some x -> Printf.sprintf "%h" x in
        QCheck.Test.fail_reportf "howard %s, oracle %s" (pp a) (pp b))

let suite =
  [ "graph.known", known_tests;
    "graph.properties",
    List.map QCheck_alcotest.to_alcotest [ agreement; monotone; oracle ] ]
