(* Quickstart: build a hypergraph, compute its hypertree width, a GHD, and
   a fractionally improved decomposition.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* The hypergraph of the conjunctive query
       q(x,y,z,u,v) :- r(x,y), s(y,z), t(z,u), w(u,v), p(v,x).
     — a 5-cycle of binary atoms. *)
  let h =
    Hg.Hypergraph.of_named_edges
      [
        ("r", [ "x"; "y" ]);
        ("s", [ "y"; "z" ]);
        ("t", [ "z"; "u" ]);
        ("w", [ "u"; "v" ]);
        ("p", [ "v"; "x" ]);
      ]
  in
  Printf.printf "Hypergraph (%d vertices, %d edges):\n%s\n"
    h.Hg.Hypergraph.n_vertices h.Hg.Hypergraph.n_edges
    (Hg.Hypergraph.to_string h);

  (* Structural profile: degree, intersection sizes, VC dimension. *)
  let profile = Hg.Properties.profile h in
  Format.printf "Profile: %a@.@." Hg.Properties.pp_profile profile;

  (* Hypertree width via DetKDecomp. *)
  (match Detk.hypertree_width h with
  | Some (hw, hd), _ ->
      Printf.printf "hw = %d, witness HD:\n" hw;
      Format.printf "%a@." (fun fmt -> Decomp.pp h fmt) hd;
      assert (Decomp.check_hd h hd = [])
  | None, k -> Printf.printf "hw computation open at k = %d\n" k);

  (* Generalized hypertree width: try to beat hw with the GHD portfolio. *)
  (match Ghd.Portfolio.check h ~k:1 with
  | Ghd.Portfolio.Yes _ -> print_endline "ghw = 1 (acyclic)"
  | Ghd.Portfolio.No _ -> print_endline "ghw >= 2: cycles need width 2"
  | Ghd.Portfolio.All_timeout -> print_endline "ghw: timeout");

  (* Fractional improvement (paper §6.5). *)
  match Fhd.Frac_improve_hd.best h ~k:2 with
  | Some (fhd, width) ->
      Printf.printf "\nbest fractionally improved width at k=2: %.3f\n" width;
      Format.printf "%a@." (fun fmt -> Decomp.Fractional.pp h fmt) fhd
  | None -> print_endline "no fractional improvement found"
