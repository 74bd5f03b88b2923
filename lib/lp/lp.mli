(** Fractional vertex packing: the one LP fractional widths need
    (paper §6.5).

    [pack] solves max Σ_j y_j subject to Σ_j a_ij y_j <= 1 for every
    row i and y >= 0, for a 0/1 matrix a. Its dual is the covering LP
    min Σ_i γ_i subject to Σ_i a_ij γ_i >= 1 for every column j and
    γ >= 0, which is ρ* when the rows are edges and the columns the
    vertices to cover. The origin is feasible, so the primal simplex
    starts from the slack basis with no phase 1 and no artificials;
    Bland's rule (lowest improving column, ratio ties to the lowest
    basic index) rules out cycling. The final tableau yields both
    solutions: y from the basic rows, γ_i from the reduced cost of row
    i's slack column. Numerics are plain floats with an absolute
    tolerance; callers certify the pair (see {!Fhd.Frac_cover}). Built
    from scratch because no LP package ships with this environment. *)

type solution = {
  value : float;  (** The common optimum Σ_j y_j = Σ_i γ_i. *)
  gamma : float array;  (** Covering dual, one weight per row, >= 0. *)
  y : float array;  (** Packing primal, one weight per column, >= 0. *)
}

val pack : rows:int -> cols:int -> (int -> int -> bool) -> solution
(** [pack ~rows ~cols a] where [a i j] tells whether entry (i, j) is 1.
    Every column must be 1 in some row, or the packing is unbounded
    ([Invalid_argument]). The tableau lives in per-domain scratch that
    grows to the largest LP seen, so a warm solve allocates only its
    result. Counts [lp.solves] and [lp.pivots] in {!Kit.Metrics}. *)
