let check_input src =
  let cap = Config.max_input () in
  if String.length src > cap then
    Some
      (Diag.errorf (Diag.point 0)
         "input is %d bytes, over the %d-byte limit (HB_MAX_INPUT)"
         (String.length src) cap)
  else None

let depth_error ~at =
  Diag.errorf (Diag.point at) "nested deeper than %d (HB_PARSE_DEPTH)"
    (Config.parse_depth ())
