(* Content-addressed result store.

   Entries are keyed by (hypergraph fingerprint, method, width budget k)
   and laid out as <dir>/<fp[0:2]>/<fp>-<method>-k<k>.json, one small
   JSON object per entry. The store is an untrusted accelerator: a "yes"
   entry carries the decomposition witness as Decomp_io text and is
   replayed through the real validator on every hit; anything that fails
   to parse, validate, or match its key degrades to a cache miss plus a
   "cache.invalid" tick — never a wrong answer. "No" verdicts need no
   witness: yes/no at a given k depends only on the structure the
   fingerprint captures. Timeouts are budget-dependent and are never
   cached. *)

module J = Kit.Json

type t = { dir : string }

type verdict = Yes of Decomp.t | No

let m_hit = Kit.Metrics.counter "cache.hit"
let m_miss = Kit.Metrics.counter "cache.miss"
let m_invalid = Kit.Metrics.counter "cache.invalid"
let m_store = Kit.Metrics.counter "cache.store"

let create ~dir =
  Fsio.mkdir_p dir;
  { dir }

let of_env () = Option.map (fun dir -> create ~dir) (Kit.Config.cache ())

let dir t = t.dir

let entry_path t ~fp ~meth ~k =
  Filename.concat
    (Filename.concat t.dir (String.sub fp 0 2))
    (Printf.sprintf "%s-%s-k%d.json" fp meth k)

let store t hg ~meth ~k verdict =
  let fp = Hg.Hypergraph.fingerprint hg in
  let path = entry_path t ~fp ~meth ~k in
  let fields =
    [
      ("fingerprint", J.String fp);
      ("method", J.String meth);
      ("k", J.Int k);
    ]
    @
    match verdict with
    | No -> [ ("verdict", J.String "no") ]
    | Yes d ->
        [
          ("verdict", J.String "yes");
          ("width", J.Int (Decomp.width d));
          ("hd", J.String (Decomp_io.to_text hg d));
        ]
  in
  Fsio.mkdir_p (Filename.dirname path);
  Fsio.write_atomic path (J.to_string (J.Obj fields));
  Kit.Metrics.incr m_store

(* Exactly one of hit/miss/invalid ticks per lookup, so
   hit / (hit + miss + invalid) is a well-defined hit rate. *)
let find t hg ~meth ~k =
  let fp = Hg.Hypergraph.fingerprint hg in
  let path = entry_path t ~fp ~meth ~k in
  if not (Sys.file_exists path) then begin
    Kit.Metrics.incr m_miss;
    None
  end
  else begin
    let invalid () =
      Kit.Metrics.incr m_invalid;
      None
    in
    let hit v =
      Kit.Metrics.incr m_hit;
      Some v
    in
    let str field j = Option.bind (J.member field j) J.string_value in
    match Fsio.read_file path with
    | Error _ -> invalid ()
    | Ok text -> (
        match J.of_string text with
        | Error _ -> invalid ()
        | Ok j ->
            (* The key is stored redundantly inside the entry; a file
               that landed under the wrong name (manual copy, tooling
               bug) must not answer for this key. *)
            if
              str "fingerprint" j <> Some fp
              || str "method" j <> Some meth
              || Option.bind (J.member "k" j) J.to_int <> Some k
            then invalid ()
            else (
              match str "verdict" j with
              | Some "no" -> hit No
              | Some "yes" -> (
                  match str "hd" j with
                  | None -> invalid ()
                  | Some text -> (
                      match Decomp_io.of_text hg text with
                      | Error _ -> invalid ()
                      | Ok d ->
                          if Decomp.width d <= k && Decomp.check_hd hg d = []
                          then hit (Yes d)
                          else invalid ()))
              | Some _ | None -> invalid ()))
  end
