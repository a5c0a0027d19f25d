let () =
  match Graftbench.Bench.main Sys.argv with
  | () -> ()
  | exception Graftbench.Bench.Usage msg ->
      prerr_endline msg;
      prerr_endline Graftbench.Bench.usage;
      exit 2
