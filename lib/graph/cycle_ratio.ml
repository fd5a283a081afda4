let eps = 1e-9

(* ------------------------------------------------------------------ *)
(* Lawler's parametric search with positive-cycle detection.           *)

(* Does the graph contain a cycle of positive weight under the edge
   reweighting [w - r * t]? Bellman-Ford from a virtual super-source. *)
let has_positive_cycle g rho =
  let n = Digraph.n_nodes g in
  let dist = Array.make (max n 1) 0.0 in
  let edges = Digraph.edges g in
  let changed = ref true in
  let pass = ref 0 in
  while !changed && !pass <= n do
    changed := false;
    incr pass;
    List.iter
      (fun e ->
        let w = e.Digraph.weight -. (rho *. float_of_int e.Digraph.count) in
        if dist.(e.Digraph.src) +. w > dist.(e.Digraph.dst) +. 1e-12 then begin
          dist.(e.Digraph.dst) <- dist.(e.Digraph.src) +. w;
          changed := true
        end)
      edges
  done;
  !changed

let lawler ?(epsilon = 1e-9) g =
  let bound =
    List.fold_left
      (fun acc e -> acc +. abs_float e.Digraph.weight)
      1.0 (Digraph.edges g)
  in
  let lo = -.bound and hi = bound in
  if has_positive_cycle g hi then
    failwith "Cycle_ratio.lawler: cycle with zero count";
  if not (has_positive_cycle g lo) then None
  else begin
    let lo = ref lo and hi = ref hi in
    while !hi -. !lo > epsilon do
      let mid = 0.5 *. (!lo +. !hi) in
      if has_positive_cycle g mid then lo := mid else hi := mid
    done;
    Some (0.5 *. (!lo +. !hi))
  end

(* ------------------------------------------------------------------ *)
(* Howard's policy iteration for the maximum cycle ratio, on raw edge
   arrays.

   The caller supplies the graph as parallel arrays (edges in insertion
   order) and all working storage lives in a domain-local scratch that
   only grows, so the Precedence hot path runs allocation-free.

   A policy picks one out-edge per node of the cyclic core, so
   following it from any node ends on a policy cycle. Evaluation gives
   every node the ratio [r] of the cycle it reaches and a value [d]
   (the reduced weight [w - r * t] summed along the policy path, zero
   at the cycle's smallest node: a canonical root, so a cycle that
   survives an improvement keeps its values and ties between cycles of
   equal ratio cannot flip-flop). Improvement switches a node to a
   successor with a strictly better (ratio, value). A cycle of count 0
   and weight 0 has no ratio; it gets [bottom], below every real cycle
   ratio but finite, so values through it stay exact. *)

type scratch = {
  mutable s_alive : bool array;
  mutable s_off0 : int array;  (* full CSR offsets (n+1) *)
  mutable s_adj0 : int array;  (* full CSR edge ids, insertion order *)
  mutable s_off : int array;  (* alive-filtered CSR offsets (n+1) *)
  mutable s_adj : int array;
  mutable s_cur : int array;  (* CSR fill cursors *)
  mutable s_policy : int array;  (* edge id, or -1 off the cyclic core *)
  mutable s_r : float array;
  mutable s_d : float array;
  mutable s_state : int array;
  mutable s_stack : int array;
  s_tmp : float array;
      (* running float accumulators; OCaml float refs box on every
         update, float-array cells don't *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { s_alive = [||]; s_off0 = [||]; s_adj0 = [||]; s_off = [||];
        s_adj = [||]; s_cur = [||]; s_policy = [||]; s_r = [||];
        s_d = [||]; s_state = [||]; s_stack = [||];
        s_tmp = Array.make 5 0.0 })

let cap n =
  let c = ref 16 in
  while !c < n do
    c := !c * 2
  done;
  !c

let grow_i buf n = if Array.length buf >= n then buf else Array.make (cap n) 0

let grow_b buf n =
  if Array.length buf >= n then buf else Array.make (cap n) false

let grow_f buf n =
  if Array.length buf >= n then buf else Array.make (cap n) 0.0

let howard_flat ~n ~m ~src ~dst ~weight ~count =
  if n = 0 then None
  else begin
    let s = Domain.DLS.get scratch_key in
    (* Full CSR over all edges, per-source buckets in insertion order. *)
    let off0 = grow_i s.s_off0 (n + 1) in
    s.s_off0 <- off0;
    let adj0 = grow_i s.s_adj0 (max m 1) in
    s.s_adj0 <- adj0;
    let cur = grow_i s.s_cur (n + 1) in
    s.s_cur <- cur;
    Array.fill off0 0 (n + 1) 0;
    for k = 0 to m - 1 do
      off0.(src.(k) + 1) <- off0.(src.(k) + 1) + 1
    done;
    for u = 1 to n do
      off0.(u) <- off0.(u) + off0.(u - 1)
    done;
    Array.blit off0 0 cur 0 n;
    for k = 0 to m - 1 do
      let u = src.(k) in
      adj0.(cur.(u)) <- k;
      cur.(u) <- cur.(u) + 1
    done;
    (* Trim to the cyclic core: repeatedly drop nodes with no out-edge
       into the remaining set, so every policy path ends on a cycle. *)
    let alive = grow_b s.s_alive n in
    s.s_alive <- alive;
    Array.fill alive 0 n true;
    let changed = ref true in
    while !changed do
      changed := false;
      for u = 0 to n - 1 do
        if alive.(u) then begin
          let has_out = ref false in
          for k = off0.(u) to off0.(u + 1) - 1 do
            if alive.(dst.(adj0.(k))) then has_out := true
          done;
          if not !has_out then begin
            alive.(u) <- false;
            changed := true
          end
        end
      done
    done;
    (* Alive-filtered CSR; dead sources keep empty buckets. *)
    let off = grow_i s.s_off (n + 1) in
    s.s_off <- off;
    let adj = grow_i s.s_adj (max m 1) in
    s.s_adj <- adj;
    Array.fill off 0 (n + 1) 0;
    for k = 0 to m - 1 do
      if alive.(src.(k)) && alive.(dst.(k)) then
        off.(src.(k) + 1) <- off.(src.(k) + 1) + 1
    done;
    for u = 1 to n do
      off.(u) <- off.(u) + off.(u - 1)
    done;
    Array.blit off 0 cur 0 n;
    for k = 0 to m - 1 do
      let u = src.(k) in
      if alive.(u) && alive.(dst.(k)) then begin
        adj.(cur.(u)) <- k;
        cur.(u) <- cur.(u) + 1
      end
    done;
    let policy = grow_i s.s_policy n in
    s.s_policy <- policy;
    for u = 0 to n - 1 do
      policy.(u) <- (if off.(u + 1) > off.(u) then adj.(off.(u)) else -1)
    done;
    (* tmp.(4) = [bottom]: a cycle with a positive count has a ratio of
       at least minus the sum of absolute weights *)
    let tmp = s.s_tmp in
    tmp.(4) <- -1.0;
    for k = 0 to m - 1 do
      tmp.(4) <- tmp.(4) -. abs_float weight.(k)
    done;
    (* Nodes off the cyclic core keep ratio [bottom] throughout (a loop,
       since [Array.fill] would box the float). *)
    let r = grow_f s.s_r n in
    s.s_r <- r;
    for u = 0 to n - 1 do
      r.(u) <- tmp.(4)
    done;
    let d = grow_f s.s_d n in
    s.s_d <- d;
    Array.fill d 0 n 0.0;
    let state = grow_i s.s_state n in
    s.s_state <- state;
    let stack = grow_i s.s_stack n in
    s.s_stack <- stack;
    let evaluate () =
      (* 0 = unvisited, 1 = on the current path, 2 = evaluated *)
      Array.fill state 0 n 0;
      for s0 = 0 to n - 1 do
        if state.(s0) = 0 && policy.(s0) >= 0 then begin
          (* follow the policy until it closes a new cycle or meets an
             evaluated node *)
          let sp = ref 0 and u = ref s0 in
          while !u >= 0 do
            state.(!u) <- 1;
            stack.(!sp) <- !u;
            incr sp;
            let v = dst.(policy.(!u)) in
            if state.(v) = 0 then u := v
            else begin
              if state.(v) = 1 then begin
                (* new policy cycle [stack.(j0 .. sp-1)]: each node's
                   successor is the next entry, the last one's the
                   first; [jc] indexes its smallest node, the root *)
                let j0 = ref (!sp - 1) in
                while stack.(!j0) <> v do
                  decr j0
                done;
                let j0 = !j0 and len = !sp - !j0 in
                tmp.(0) <- 0.0;
                let sum_t = ref 0 and jc = ref j0 in
                for j = j0 to !sp - 1 do
                  let p = policy.(stack.(j)) in
                  tmp.(0) <- tmp.(0) +. weight.(p);
                  sum_t := !sum_t + count.(p);
                  if stack.(j) < stack.(!jc) then jc := j
                done;
                let rc =
                  if !sum_t > 0 then tmp.(0) /. float_of_int !sum_t
                  else if tmp.(0) > eps then
                    failwith "Cycle_ratio.howard: cycle with zero count"
                  else tmp.(4)
                in
                for j = j0 to !sp - 1 do
                  r.(stack.(j)) <- rc;
                  state.(stack.(j)) <- 2
                done;
                (* values backwards around the cycle from the root *)
                d.(stack.(!jc)) <- 0.0;
                for k = 1 to len - 1 do
                  let j = if !jc - k >= j0 then !jc - k else !jc - k + len in
                  let p = policy.(stack.(j)) in
                  d.(stack.(j)) <-
                    weight.(p) -. (rc *. float_of_int count.(p)) +. d.(dst.(p))
                done
              end;
              u := -1
            end
          done;
          (* unwind the path: each node from its successor *)
          for j = !sp - 1 downto 0 do
            let x = stack.(j) in
            if state.(x) = 1 then begin
              let p = policy.(x) in
              let w = dst.(p) in
              r.(x) <- r.(w);
              d.(x) <- weight.(p) -. (r.(w) *. float_of_int count.(p)) +. d.(w);
              state.(x) <- 2
            end
          done
        end
      done
    in
    let improve () =
      let improved = ref false in
      for u = 0 to n - 1 do
        let curp = policy.(u) in
        if curp >= 0 then begin
          let best = ref curp in
          (* tmp.(1) = best ratio, tmp.(2) = best value *)
          tmp.(1) <- r.(dst.(curp));
          tmp.(2) <-
            weight.(curp)
            -. (r.(dst.(curp)) *. float_of_int count.(curp))
            +. d.(dst.(curp));
          for k = off.(u) to off.(u + 1) - 1 do
            let e = adj.(k) in
            let r2 = r.(dst.(e)) in
            let v2 =
              weight.(e) -. (r2 *. float_of_int count.(e)) +. d.(dst.(e))
            in
            if
              r2 > tmp.(1) +. eps
              || (abs_float (r2 -. tmp.(1)) <= eps && v2 > tmp.(2) +. 1e-6)
            then begin
              best := e;
              tmp.(1) <- r2;
              tmp.(2) <- v2
            end
          done;
          if !best <> curp then begin
            policy.(u) <- !best;
            improved := true
          end
        end
      done;
      !improved
    in
    let guard = ref ((n * m) + 64) in
    evaluate ();
    while improve () && !guard > 0 do
      decr guard;
      evaluate ()
    done;
    if !guard <= 0 then begin
      (* extremely defensive: fall back to the parametric search on a
         materialized graph *)
      let g = Digraph.create ~n in
      for k = 0 to m - 1 do
        Digraph.add_edge g ~src:src.(k) ~dst:dst.(k) ~weight:weight.(k)
          ~count:count.(k)
      done;
      lawler g
    end
    else begin
      tmp.(3) <- tmp.(4);
      for u = 0 to n - 1 do
        if r.(u) > tmp.(3) then tmp.(3) <- r.(u)
      done;
      if tmp.(3) > tmp.(4) then Some tmp.(3) else None
    end
  end

let howard g =
  let es = Array.of_list (Digraph.edges g) in
  howard_flat ~n:(Digraph.n_nodes g) ~m:(Array.length es)
    ~src:(Array.map (fun e -> e.Digraph.src) es)
    ~dst:(Array.map (fun e -> e.Digraph.dst) es)
    ~weight:(Array.map (fun e -> e.Digraph.weight) es)
    ~count:(Array.map (fun e -> e.Digraph.count) es)

(* ------------------------------------------------------------------ *)

let critical_cycle g r =
  let n = Digraph.n_nodes g in
  if n = 0 then None
  else begin
    let rho = r -. 1e-6 in
    let dist = Array.make n 0.0 in
    let pred = Array.make n None in
    let edges = Digraph.edges g in
    let last_updated = ref (-1) in
    for _pass = 0 to n do
      last_updated := -1;
      List.iter
        (fun e ->
          let w = e.Digraph.weight -. (rho *. float_of_int e.Digraph.count) in
          if dist.(e.Digraph.src) +. w > dist.(e.Digraph.dst) +. 1e-12 then begin
            dist.(e.Digraph.dst) <- dist.(e.Digraph.src) +. w;
            pred.(e.Digraph.dst) <- Some e;
            last_updated := e.Digraph.dst
          end)
        edges
    done;
    if !last_updated < 0 then None
    else begin
      (* walk back n steps to land inside the cycle, then collect it *)
      let u = ref !last_updated in
      for _ = 1 to n do
        match pred.(!u) with
        | Some e -> u := e.Digraph.src
        | None -> ()
      done;
      let start = !u in
      let rec collect v acc =
        match pred.(v) with
        | None -> None
        | Some e ->
          let acc = e :: acc in
          if e.Digraph.src = start then Some acc else collect e.Digraph.src acc
      in
      collect start []
    end
  end
