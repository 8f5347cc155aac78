(* perfbench: run one workload of the simulator benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints one line per metric, then, as the last line, a JSON object with
   the keys correct, attempted, failed and metrics. See README.md. *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
    ^ String.concat ", " Perfbench.Bench.names);
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := int_of_string v; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match !workload with
  | None -> usage ()
  | Some name -> (
    match
      Perfbench.Bench.run ~size:Perfbench.Bench.Full ~seed:!seed ~seconds:!seconds
        ~traced:(!trace = 1) name
    with
    | Ok json -> print_endline json
    | Error msg ->
      prerr_endline msg;
      exit 2)
