module RB = Sh_window.Ring_buffer

let test_basics () =
  let b = RB.create ~capacity:3 in
  Alcotest.(check int) "capacity" 3 (RB.capacity b);
  Alcotest.(check int) "empty length" 0 (RB.length b);
  Alcotest.(check bool) "not full" false (RB.is_full b);
  RB.push b 1.0;
  RB.push b 2.0;
  Helpers.check_close "oldest" 1.0 (RB.oldest b);
  Helpers.check_close "newest" 2.0 (RB.newest b);
  RB.push b 3.0;
  Alcotest.(check bool) "full" true (RB.is_full b);
  RB.push b 4.0;
  (* window: 2, 3, 4 *)
  Helpers.check_close "evicted oldest" 2.0 (RB.oldest b);
  Helpers.check_close "get 2" 3.0 (RB.get b 2);
  Helpers.check_close "newest" 4.0 (RB.newest b);
  Alcotest.(check int) "stays at capacity" 3 (RB.length b)

let test_to_array_wrap () =
  let b = RB.create ~capacity:3 in
  List.iter (RB.push b) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check (array (float 1e-9))) "wrapped contents" [| 3.0; 4.0; 5.0 |] (RB.to_array b)

let test_blit_to () =
  let b = RB.create ~capacity:4 in
  List.iter (RB.push b) [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 ];
  let dst = Array.make 4 0.0 in
  RB.blit_to b dst;
  Alcotest.(check (array (float 1e-9))) "blit" [| 3.0; 4.0; 5.0; 6.0 |] dst;
  Alcotest.check_raises "small destination"
    (Invalid_argument "Ring_buffer.blit_to: destination too small") (fun () ->
      RB.blit_to b (Array.make 3 0.0))

let test_iteri () =
  let b = RB.create ~capacity:2 in
  List.iter (RB.push b) [ 10.0; 20.0; 30.0 ];
  let acc = ref [] in
  RB.iteri b (fun i v -> acc := (i, v) :: !acc);
  Alcotest.(check (list (pair int (float 1e-9))))
    "pairs oldest-first" [ (1, 20.0); (2, 30.0) ] (List.rev !acc)

let test_bounds () =
  let b = RB.create ~capacity:2 in
  Alcotest.check_raises "get on empty" (Invalid_argument "Ring_buffer.get: index out of window")
    (fun () -> ignore (RB.get b 1));
  RB.push b 1.0;
  Alcotest.check_raises "index 0" (Invalid_argument "Ring_buffer.get: index out of window")
    (fun () -> ignore (RB.get b 0));
  Alcotest.check_raises "beyond length" (Invalid_argument "Ring_buffer.get: index out of window")
    (fun () -> ignore (RB.get b 2))

let test_clear () =
  let b = RB.create ~capacity:2 in
  RB.push b 1.0;
  RB.clear b;
  Alcotest.(check int) "cleared" 0 (RB.length b);
  RB.push b 9.0;
  Helpers.check_close "usable after clear" 9.0 (RB.oldest b)

let test_create_validation () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Ring_buffer.create: capacity must be >= 1") (fun () ->
      ignore (RB.create ~capacity:0))


(* Reference model: the last [cap] pushed values. *)
let prop_matches_model =
  Helpers.qcheck_case ~count:100 ~name:"ring buffer equals suffix of pushed stream"
    QCheck2.Gen.(
      let* cap = int_range 1 10 in
      let* stream = array_size (int_range 0 80) (int_range (-50) 50) in
      return (cap, Array.map Float.of_int stream))
    (fun (cap, stream) ->
      let b = RB.create ~capacity:cap in
      let ok = ref true in
      Array.iteri
        (fun i v ->
          RB.push b v;
          let len = min (i + 1) cap in
          let expect = Array.sub stream (i + 1 - len) len in
          if RB.to_array b <> expect then ok := false;
          for j = 1 to len do
            if RB.get b j <> expect.(j - 1) then ok := false
          done)
        stream;
      !ok)

let () =
  Alcotest.run "sh_window"
    [
      ( "ring_buffer",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "to_array wrap" `Quick test_to_array_wrap;
          Alcotest.test_case "blit_to" `Quick test_blit_to;
          Alcotest.test_case "iteri" `Quick test_iteri;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          prop_matches_model;
        ] );
    ]
