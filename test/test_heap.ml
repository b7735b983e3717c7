(* Event-queue heap: ordering, tie-breaking, growth. *)

let check = Alcotest.(check int)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* Pop every entry, returning [(time, value)] pairs in pop order. *)
let drain h =
  let out = ref [] in
  while not (Sim.Heap.is_empty h) do
    let time = Sim.Heap.min_time h in
    out := (time, Sim.Heap.pop h) :: !out
  done;
  List.rev !out

let test_empty () =
  let h = Sim.Heap.create 0 in
  Alcotest.(check bool) "empty" true (Sim.Heap.is_empty h);
  Alcotest.(check bool) "pop raises" true
    (raises_invalid (fun () -> Sim.Heap.pop h));
  Alcotest.(check bool) "min_time raises" true
    (raises_invalid (fun () -> Sim.Heap.min_time h));
  Alcotest.(check bool) "min_tag raises" true
    (raises_invalid (fun () -> Sim.Heap.min_tag h))

let test_ordering () =
  let h = Sim.Heap.create 0 in
  List.iteri
    (fun i t -> Sim.Heap.push h ~time:t ~seq:i ~tag:0 i)
    [ 5; 3; 9; 1; 7; 3; 0 ];
  Alcotest.(check (list int)) "sorted" [ 0; 1; 3; 3; 5; 7; 9 ]
    (List.map fst (drain h))

let test_fifo_ties () =
  let h = Sim.Heap.create (-1) in
  for i = 0 to 9 do
    Sim.Heap.push h ~time:42 ~seq:i ~tag:(100 + i) i
  done;
  for i = 0 to 9 do
    if Sim.Heap.is_empty h then Alcotest.fail "heap exhausted early";
    check (Fmt.str "tag %d" i) (100 + i) (Sim.Heap.min_tag h);
    check (Fmt.str "tie %d" i) i (Sim.Heap.pop h)
  done

let test_growth () =
  let h = Sim.Heap.create 0 in
  let n = 10_000 in
  for i = n downto 1 do
    Sim.Heap.push h ~time:i ~seq:i ~tag:0 i
  done;
  check "size" n (Sim.Heap.size h);
  let prev = ref 0 in
  List.iter
    (fun (time, _) ->
      Alcotest.(check bool) "monotone" true (time > !prev);
      prev := time)
    (drain h);
  check "drained" 0 (Sim.Heap.size h)

let test_clear () =
  let h = Sim.Heap.create 0 in
  for i = 1 to 100 do
    Sim.Heap.push h ~time:i ~seq:i ~tag:0 i
  done;
  Sim.Heap.clear h;
  check "cleared" 0 (Sim.Heap.size h);
  Alcotest.(check bool) "pop after clear raises" true
    (raises_invalid (fun () -> Sim.Heap.pop h))

let test_interleaved () =
  let h = Sim.Heap.create 0 in
  Sim.Heap.push h ~time:10 ~seq:0 ~tag:0 10;
  Sim.Heap.push h ~time:5 ~seq:1 ~tag:0 5;
  check "first" 5 (Sim.Heap.pop h);
  Sim.Heap.push h ~time:1 ~seq:2 ~tag:0 1;
  check "second" 1 (Sim.Heap.pop h);
  check "third" 10 (Sim.Heap.pop h)

(* Seeded random mix of pushes and pops against a sorted-list model:
   every pop must return the smallest (time, seq) still held, with its
   time and tag. Times come from a small range so ties are frequent. *)
let test_random_interleaved () =
  let rng = Random.State.make [| 17 |] in
  let h = Sim.Heap.create (-1) in
  let model = ref [] in
  let seq = ref 0 in
  for step = 1 to 20_000 do
    if !model = [] || Random.State.int rng 100 < 55 then begin
      incr seq;
      let time = Random.State.int rng 500 in
      Sim.Heap.push h ~time ~seq:!seq ~tag:(time * 7) !seq;
      model := List.merge compare !model [ (time, !seq) ]
    end
    else begin
      match !model with
      | [] -> assert false
      | (time, s) :: rest ->
          model := rest;
          check (Fmt.str "step %d time" step) time (Sim.Heap.min_time h);
          check (Fmt.str "step %d tag" step) (time * 7) (Sim.Heap.min_tag h);
          check (Fmt.str "step %d value" step) s (Sim.Heap.pop h)
    end;
    check (Fmt.str "step %d size" step) (List.length !model) (Sim.Heap.size h)
  done;
  Alcotest.(check (list int)) "final drain"
    (List.map snd !model)
    (List.map snd (drain h))

let qcheck_heapsort =
  QCheck.Test.make ~name:"heap pops form a sorted permutation" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Sim.Heap.create 0 in
      List.iteri (fun i t -> Sim.Heap.push h ~time:t ~seq:i ~tag:0 t) times;
      List.map fst (drain h) = List.sort compare times)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "pops in time order" `Quick test_ordering;
    Alcotest.test_case "ties break by sequence" `Quick test_fifo_ties;
    Alcotest.test_case "grows past initial capacity" `Quick test_growth;
    Alcotest.test_case "clear empties the heap" `Quick test_clear;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved;
    Alcotest.test_case "random interleaving matches a sorted model" `Quick
      test_random_interleaved;
    QCheck_alcotest.to_alcotest qcheck_heapsort;
  ]
