(* Tests for the XML parser and the XCSP-to-hypergraph reader (§5.5). *)

module H = Hg.Hypergraph

let xml_basic () =
  match Xcsp3.Xml.parse {|<a x="1" y='two'><b/><c>text</c></a>|} with
  | Error m -> Alcotest.fail m
  | Ok root ->
      Alcotest.(check (option string)) "tag" (Some "a") (Xcsp3.Xml.tag root);
      Alcotest.(check (option string)) "attr x" (Some "1") (Xcsp3.Xml.attr root "x");
      Alcotest.(check (option string)) "attr y" (Some "two") (Xcsp3.Xml.attr root "y");
      Alcotest.(check int) "children" 2 (List.length (Xcsp3.Xml.children root));
      let c = Option.get (Xcsp3.Xml.find_child root "c") in
      Alcotest.(check string) "text" "text" (String.trim (Xcsp3.Xml.text_content c))

let xml_declaration_comment () =
  let src =
    {|<?xml version="1.0"?>
      <!-- a comment -->
      <root><!-- inner --><x/></root>|}
  in
  match Xcsp3.Xml.parse src with
  | Error m -> Alcotest.fail m
  | Ok root ->
      Alcotest.(check int) "one child" 1 (List.length (Xcsp3.Xml.children root))

let xml_entities () =
  match Xcsp3.Xml.parse {|<a t="&lt;x&gt;">&amp;&quot;&apos;</a>|} with
  | Error m -> Alcotest.fail m
  | Ok root ->
      Alcotest.(check (option string)) "attr entities" (Some "<x>")
        (Xcsp3.Xml.attr root "t");
      Alcotest.(check string) "text entities" "&\"'"
        (String.trim (Xcsp3.Xml.text_content root))

let xml_errors () =
  let bad = [ "<a>"; "<a></b>"; "text only"; "<a attr=oops></a>"; "<a/><b/>" ] in
  List.iter
    (fun src ->
      match Xcsp3.Xml.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should fail: %s" src)
    bad

let xcsp_small () =
  let src =
    {|<instance format="XCSP3" type="CSP" id="demo">
        <variables>
          <var id="x0"> 0..3 </var>
          <var id="x1"> 0..3 </var>
          <var id="x2"> 0..3 </var>
        </variables>
        <constraints>
          <extension>
            <list> x0 x1 </list>
            <supports> (0,1)(1,2) </supports>
          </extension>
          <allDifferent> x1 x2 </allDifferent>
        </constraints>
      </instance>|}
  in
  match Xcsp3.Xcsp.read src with
  | Error m -> Alcotest.fail m
  | Ok h ->
      Alcotest.(check int) "edges" 2 h.H.n_edges;
      Alcotest.(check int) "vertices" 3 h.H.n_vertices

let xcsp_arrays_and_groups () =
  let src =
    {|<instance>
        <variables>
          <array id="y" size="[3]"> 0..1 </array>
          <var id="z"> 0..1 </var>
        </variables>
        <constraints>
          <group>
            <intension> eq(%0,%1) </intension>
            <args> y[0] y[1] </args>
            <args> y[1] y[2] </args>
          </group>
          <sum>
            <list> y[] z </list>
          </sum>
        </constraints>
      </instance>|}
  in
  match Xcsp3.Xcsp.parse src with
  | Error m -> Alcotest.fail m
  | Ok inst ->
      Alcotest.(check int) "expanded variables" 4 (List.length inst.Xcsp3.Xcsp.variables);
      Alcotest.(check int) "three constraints" 3 (List.length inst.Xcsp3.Xcsp.scopes);
      (* The whole-array reference y[] expands to all members. *)
      let sum_scope = List.nth inst.Xcsp3.Xcsp.scopes 2 in
      Alcotest.(check int) "sum scope size" 4 (List.length sum_scope)

let xcsp_matrix_array () =
  let src =
    {|<instance>
        <variables><array id="m" size="[2][2]"> 0..1 </array></variables>
        <constraints><allDifferent> m[0][0] m[1][1] </allDifferent></constraints>
      </instance>|}
  in
  match Xcsp3.Xcsp.parse src with
  | Error m -> Alcotest.fail m
  | Ok inst ->
      Alcotest.(check int) "4 cells" 4 (List.length inst.Xcsp3.Xcsp.variables);
      Alcotest.(check (list (list string))) "diagonal scope"
        [ [ "m[0][0]"; "m[1][1]" ] ]
        inst.Xcsp3.Xcsp.scopes

let xcsp_blocks () =
  let src =
    {|<instance>
        <variables><var id="a"/><var id="b"/><var id="c"/></variables>
        <constraints>
          <block>
            <extension><list> a b </list></extension>
            <block><extension><list> b c </list></extension></block>
          </block>
        </constraints>
      </instance>|}
  in
  match Xcsp3.Xcsp.read src with
  | Error m -> Alcotest.fail m
  | Ok h -> Alcotest.(check int) "nested blocks flattened" 2 h.H.n_edges

let xcsp_errors () =
  (match Xcsp3.Xcsp.read "<instance><constraints/></instance>" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing variables should fail");
  (match
     Xcsp3.Xcsp.read
       {|<instance><variables><var id="x"/></variables><constraints></constraints></instance>|}
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "no constraints should fail");
  match Xcsp3.Xcsp.read "<foo/>" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong root should fail"

(* --- hostile inputs ---------------------------------------------------- *)

let xml_unterminated_comment () =
  (* A comment that never closes must be a positioned error, not a hang
     or a silent EOF. *)
  match Xcsp3.Xml.parse_report "<a><!-- this comment never ends" with
  | Ok _ -> Alcotest.fail "unterminated comment should fail"
  | Error ds ->
      Alcotest.(check bool) "has a diagnostic" true (ds <> []);
      let d = List.hd ds in
      Alcotest.(check bool) "span inside input" true
        (d.Kit.Diag.span.Kit.Diag.start <= 31)

let xml_cdata () =
  (* CDATA is literal: no entity decoding, markup characters are text. *)
  (match Xcsp3.Xml.parse "<a><![CDATA[<b>&amp;</b>]]></a>" with
  | Error m -> Alcotest.fail m
  | Ok root ->
      Alcotest.(check string) "literal content" "<b>&amp;</b>"
        (Xcsp3.Xml.text_content root);
      Alcotest.(check int) "no child elements" 0
        (List.length
           (List.filter
              (fun n -> Xcsp3.Xml.tag n <> None)
              (Xcsp3.Xml.children root))));
  (* A CDATA section cannot nest: the first ]]> closes it, the rest is
     ordinary (here: invalid) content. *)
  (match Xcsp3.Xml.parse "<a><![CDATA[x<![CDATA[y]]></a>" with
  | Error m -> Alcotest.fail m
  | Ok root ->
      Alcotest.(check string) "first ]]> closes" "x<![CDATA[y"
        (Xcsp3.Xml.text_content root));
  (* Unterminated CDATA is an error, not an infinite scan. *)
  match Xcsp3.Xml.parse "<a><![CDATA[never closed" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated CDATA should fail"

let xml_megabyte_attribute () =
  (* An attribute value of a megabyte is legal and must survive intact
     (and in linear time). *)
  let big = String.make 1_000_000 'v' in
  let src = Printf.sprintf {|<a huge="%s"><b/></a>|} big in
  match Xcsp3.Xml.parse src with
  | Error m -> Alcotest.fail m
  | Ok root -> (
      match Xcsp3.Xml.attr root "huge" with
      | Some v -> Alcotest.(check int) "length preserved" 1_000_000 (String.length v)
      | None -> Alcotest.fail "attribute lost")

let xml_undefined_entity () =
  (* Unknown entities pass through verbatim — benchmark files in the wild
     contain bare ampersands and we must not lose bytes around them. *)
  match Xcsp3.Xml.parse "<a>&unknown; &#x26; &amp;</a>" with
  | Error m -> Alcotest.fail m
  | Ok root ->
      let t = String.trim (Xcsp3.Xml.text_content root) in
      Alcotest.(check bool) "verbatim unknown entity" true
        (String.length t >= 9 && String.sub t 0 9 = "&unknown;")

let xml_depth_bound () =
  (* Nesting twice past HB_PARSE_DEPTH must come back as a clean error
     mentioning the knob, never Stack_overflow. *)
  let n = 2 * Kit.Limits.max_depth () in
  let buf = Buffer.create (8 * n) in
  for _ = 1 to n do Buffer.add_string buf "<d>" done;
  Buffer.add_string buf "x";
  for _ = 1 to n do Buffer.add_string buf "</d>" done;
  match Xcsp3.Xml.parse (Buffer.contents buf) with
  | Ok _ -> Alcotest.fail "depth bomb should fail"
  | Error m ->
      Alcotest.(check bool) "names the knob" true
        (try
           ignore (Str.search_forward (Str.regexp_string "HB_PARSE_DEPTH") m 0);
           true
         with Not_found -> false)

let xcsp_array_size_bomb () =
  (* A single declared dimension of 999999999 cells must be refused before
     any allocation, as must a product of dimensions that overflows. *)
  List.iter
    (fun size ->
      let src =
        Printf.sprintf
          {|<instance><variables><array id="a" size="%s"> 0..1 </array></variables><constraints><allDifferent> a[] </allDifferent></constraints></instance>|}
          size
      in
      match Xcsp3.Xcsp.read src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "array bomb %s should fail" size)
    [ "[999999999]"; "[100000][100000]"; "[4611686018427387904][4]" ]

let roundtrip () =
  let rng = Kit.Rng.create 5 in
  for i = 1 to 20 do
    let h = Gen.Random_csp.typical rng in
    let xml = Xcsp3.Xcsp.to_xml ~name:(Printf.sprintf "rt%d" i) h in
    match Xcsp3.Xcsp.read xml with
    | Error m -> Alcotest.failf "roundtrip %d: %s" i m
    | Ok h' ->
        Alcotest.(check bool)
          (Printf.sprintf "roundtrip %d structure" i)
          true
          (H.equal_structure h h')
  done

let identifier_mapping () =
  let h =
    H.of_named_edges [ ("r", [ "a.b"; "a_b"; "x" ]); ("s", [ "a-b"; "x" ]) ]
  in
  Alcotest.(check (array string))
    "valid names kept, others mapped apart"
    [| "a_b_1"; "a_b"; "x"; "a_b_2" |]
    (Xcsp3.Xcsp.identifiers h)

(* Every instance of the default repository survives to_xml |> read.
   SQL-derived ones have dotted column names ("p.p_partkey"), which the
   writer maps to identifiers: their fingerprint is compared after the
   same renaming; every other instance must come back unchanged. *)
let roundtrip_repository () =
  let renamed = ref 0 in
  List.iter
    (fun (i : Benchlib.Instance.t) ->
      let h = i.hg in
      let ids = Xcsp3.Xcsp.identifiers h in
      Alcotest.(check int)
        (i.name ^ ": ids distinct")
        (Array.length ids)
        (List.length (List.sort_uniq compare (Array.to_list ids)));
      let expect =
        if ids = h.H.vertex_names then h
        else begin
          incr renamed;
          H.create ~vertex_names:ids ~edge_names:h.H.edge_names
            (Array.map Kit.Bitset.to_list h.H.edges)
        end
      in
      match Xcsp3.Xcsp.read (Xcsp3.Xcsp.to_xml ~name:i.name h) with
      | Error m -> Alcotest.failf "%s: %s" i.name m
      | Ok h' ->
          Alcotest.(check string)
            (i.name ^ ": fingerprint")
            (H.fingerprint expect) (H.fingerprint h'))
    (Benchlib.Repository.build ());
  Alcotest.(check bool) "some names needed mapping" true (!renamed > 0)

let () =
  Alcotest.run "xcsp"
    [
      ( "xml",
        [
          Alcotest.test_case "basics" `Quick xml_basic;
          Alcotest.test_case "declaration + comments" `Quick xml_declaration_comment;
          Alcotest.test_case "entities" `Quick xml_entities;
          Alcotest.test_case "errors" `Quick xml_errors;
          Alcotest.test_case "unterminated comment" `Quick
            xml_unterminated_comment;
          Alcotest.test_case "cdata" `Quick xml_cdata;
          Alcotest.test_case "megabyte attribute" `Quick xml_megabyte_attribute;
          Alcotest.test_case "undefined entity" `Quick xml_undefined_entity;
          Alcotest.test_case "depth bound" `Quick xml_depth_bound;
        ] );
      ( "xcsp",
        [
          Alcotest.test_case "small instance" `Quick xcsp_small;
          Alcotest.test_case "arrays and groups" `Quick xcsp_arrays_and_groups;
          Alcotest.test_case "matrix arrays" `Quick xcsp_matrix_array;
          Alcotest.test_case "blocks" `Quick xcsp_blocks;
          Alcotest.test_case "errors" `Quick xcsp_errors;
          Alcotest.test_case "array size bomb" `Quick xcsp_array_size_bomb;
          Alcotest.test_case "roundtrip" `Quick roundtrip;
          Alcotest.test_case "identifier mapping" `Quick identifier_mapping;
          Alcotest.test_case "roundtrip default repository" `Quick
            roundtrip_repository;
        ] );
    ]
