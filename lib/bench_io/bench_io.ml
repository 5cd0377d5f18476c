type result = { name : string; ns_per_run : float option }

type report = {
  schema_version : int;
  git_sha : string;
  timestamp : string;
  ocaml_version : string;
  hostname : string;
  jobs : int;
  results : result list;
}

let schema_version = 2

let make ?(git_sha = "unknown") ?(timestamp = "unknown")
    ?(ocaml_version = Sys.ocaml_version) ?(hostname = "unknown") ?(jobs = 1)
    results =
  {
    schema_version;
    git_sha;
    timestamp;
    ocaml_version;
    hostname;
    jobs;
    results = List.map (fun (name, ns_per_run) -> { name; ns_per_run }) results;
  }

(* --- writing --- *)

let to_json r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"schema_version\": %d,\n" r.schema_version);
  Buffer.add_string buf (Printf.sprintf "  \"git_sha\": %S,\n" r.git_sha);
  Buffer.add_string buf (Printf.sprintf "  \"timestamp\": %S,\n" r.timestamp);
  Buffer.add_string buf
    (Printf.sprintf "  \"ocaml_version\": %S,\n" r.ocaml_version);
  Buffer.add_string buf (Printf.sprintf "  \"hostname\": %S,\n" r.hostname);
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" r.jobs);
  Buffer.add_string buf "  \"benchmarks\": [\n";
  let n = List.length r.results in
  List.iteri
    (fun i { name; ns_per_run } ->
      Buffer.add_string buf
        (Printf.sprintf "    { \"name\": %S, \"ns_per_run\": %s }%s\n" name
           (match ns_per_run with
           | Some e -> Printf.sprintf "%.1f" e
           | None -> "null")
           (if i < n - 1 then "," else "")))
    r.results;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* --- parsing ---

   A minimal recursive-descent JSON reader: enough for the grammar
   [to_json] emits (objects, arrays, strings with \-escapes, numbers,
   null, true/false).  No dependency, and small enough to property-test
   against the writer. *)

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Parse_error of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'u' ->
              (* Good enough for our ASCII metadata: decode the code
                 point bytewise when it fits one byte, else substitute. *)
              if !pos + 4 >= n then fail "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              (match int_of_string_opt ("0x" ^ hex) with
              | Some c when c < 0x80 -> Buffer.add_char buf (Char.chr c)
              | Some _ -> Buffer.add_char buf '?'
              | None -> fail "bad \\u escape");
              pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          loop ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> J_str (parse_string ())
    | Some '{' -> parse_obj ()
    | Some '[' -> parse_arr ()
    | Some 'n' -> literal "null" J_null
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some ('-' | '0' .. '9') -> J_num (parse_number ())
    | _ -> fail "expected a value"
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      J_obj []
    end
    else begin
      let fields = ref [] in
      let rec loop () =
        skip_ws ();
        let key = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        fields := (key, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); loop ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      loop ();
      J_obj (List.rev !fields)
    end
  and parse_arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      J_arr []
    end
    else begin
      let items = ref [] in
      let rec loop () =
        let v = parse_value () in
        items := v :: !items;
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); loop ()
        | Some ']' -> advance ()
        | _ -> fail "expected ',' or ']'"
      in
      loop ();
      J_arr (List.rev !items)
    end
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let json_of_string text =
  match parse_json text with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let of_json text =
  match parse_json text with
  | exception Parse_error msg -> Error msg
  | J_obj fields ->
      let str key default =
        match List.assoc_opt key fields with
        | Some (J_str s) -> s
        | _ -> default
      in
      let int key default =
        match List.assoc_opt key fields with
        | Some (J_num f) -> int_of_float f
        | _ -> default
      in
      let result_of = function
        | J_obj rf -> (
            match List.assoc_opt "name" rf with
            | Some (J_str name) ->
                let ns_per_run =
                  match List.assoc_opt "ns_per_run" rf with
                  | Some (J_num f) -> Some f
                  | _ -> None
                in
                Ok { name; ns_per_run }
            | _ -> Error "benchmark entry without a \"name\" string")
        | _ -> Error "benchmark entry is not an object"
      in
      let rec results_of acc = function
        | [] -> Ok (List.rev acc)
        | j :: rest -> (
            match result_of j with
            | Ok r -> results_of (r :: acc) rest
            | Error _ as e -> e)
      in
      (match List.assoc_opt "benchmarks" fields with
      | Some (J_arr items) -> (
          match results_of [] items with
          | Error _ as e -> e
          | Ok results ->
              Ok
                {
                  schema_version = int "schema_version" 0;
                  git_sha = str "git_sha" "unknown";
                  timestamp = str "timestamp" "unknown";
                  ocaml_version = str "ocaml_version" "unknown";
                  hostname = str "hostname" "unknown";
                  (* jobs arrived with schema 2; version-1 reports were
                     always sequential. *)
                  jobs = int "jobs" 1;
                  results;
                })
      | Some _ -> Error "\"benchmarks\" is not an array"
      | None -> Error "missing \"benchmarks\" array")
  | _ -> Error "top level is not an object"

(* --- comparison --- *)

type delta = {
  test : string;
  base_ns : float option;
  cur_ns : float option;
  pct : float option;
}

type comparison = {
  deltas : delta list;
  regressions : delta list;
  baseline_only : string list;
  current_only : string list;
}

let compare ~threshold_pct ~baseline ~current =
  let find name results =
    List.find_map
      (fun r -> if r.name = name then Some r.ns_per_run else None)
      results
  in
  (* Entries present in only one report are skipped (and surfaced as
     warnings by [pp_comparison]) rather than rendered as half-empty
     delta rows: a retired or freshly added benchmark is not a
     regression, and must not pad the table the CI gate diffs. *)
  let paired =
    List.filter_map
      (fun b ->
        match find b.name current.results with
        | None -> None
        | Some cur_ns ->
            let pct =
              match (b.ns_per_run, cur_ns) with
              | Some base, Some cur when base > 0.0 ->
                  Some ((cur -. base) /. base *. 100.0)
              | _ -> None
            in
            Some { test = b.name; base_ns = b.ns_per_run; cur_ns; pct })
      baseline.results
  in
  let only_in results other =
    List.filter_map
      (fun r -> if find r.name other = None then Some r.name else None)
      results
  in
  let regressions =
    List.filter
      (fun d -> match d.pct with Some p -> p > threshold_pct | None -> false)
      paired
    |> List.sort (fun a b -> Stdlib.compare b.pct a.pct)
  in
  {
    deltas = paired;
    regressions;
    baseline_only = only_in baseline.results current.results;
    current_only = only_in current.results baseline.results;
  }

let pp_comparison ~threshold_pct ~baseline ~current ff cmp =
  let pp_ns ff = function
    | Some ns -> Format.fprintf ff "%14.0f" ns
    | None -> Format.fprintf ff "%14s" "-"
  in
  let pp_meta ff r =
    Format.fprintf ff "%s (%s, %s, jobs=%d)" r.git_sha r.timestamp r.hostname
      r.jobs
  in
  Format.fprintf ff "baseline: %a@." pp_meta baseline;
  Format.fprintf ff "current:  %a@." pp_meta current;
  if baseline.jobs <> current.jobs then
    Format.fprintf ff
      "  warning: config mismatch (baseline jobs=%d, current jobs=%d) — \
       deltas compare different parallel configurations@."
      baseline.jobs current.jobs;
  Format.fprintf ff "@.  %-18s %14s %14s %9s@." "benchmark" "base ns/run"
    "cur ns/run" "delta";
  List.iter
    (fun d ->
      let mark =
        match d.pct with
        | Some p when p > threshold_pct -> "  << REGRESSION"
        | Some p when p < -.threshold_pct -> "  (improved)"
        | _ -> ""
      in
      match d.pct with
      | Some p ->
          Format.fprintf ff "  %-18s %a %a %+8.1f%%%s@." d.test pp_ns d.base_ns
            pp_ns d.cur_ns p mark
      | None ->
          Format.fprintf ff "  %-18s %a %a %9s@." d.test pp_ns d.base_ns pp_ns
            d.cur_ns "-")
    cmp.deltas;
  (* A one-sided entry still gets its absolute value printed: a freshly
     added benchmark should be readable from the comparison output even
     before a baseline exists for it. *)
  let abs_ns results name =
    match
      List.find_map
        (fun r -> if r.name = name then r.ns_per_run else None)
        results
    with
    | Some ns -> Format.asprintf "%.0f ns/run" ns
    | None -> "no measurement"
  in
  List.iter
    (fun name ->
      Format.fprintf ff
        "  warning: %s is only in the baseline report (skipped; baseline %s)@."
        name
        (abs_ns baseline.results name))
    cmp.baseline_only;
  List.iter
    (fun name ->
      Format.fprintf ff
        "  warning: %s is only in the current report (skipped; current %s)@."
        name
        (abs_ns current.results name))
    cmp.current_only;
  match cmp.regressions with
  | [] ->
      Format.fprintf ff "@.OK: no benchmark regressed by more than %.0f%%@."
        threshold_pct
  | rs ->
      Format.fprintf ff "@.FAIL: %d benchmark(s) regressed by more than %.0f%%@."
        (List.length rs) threshold_pct
