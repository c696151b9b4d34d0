type t = {
  buf : Raw_buffer.t;
  delim : char;
  header_names : string list;
  row_starts : int array;
  row_stops : int array;
  cols : (int, int array) Hashtbl.t;  (* column index -> absolute field offsets *)
}

(* Quote-aware scan of row boundaries: newlines inside quoted fields do not
   terminate a row. A row longer than the configured limit (usually the
   symptom of an unbalanced quote swallowing the rest of the file) raises
   [Resource_limit] instead of degenerating into one giant row.

   The scan collects the offsets of row-terminating newlines, then derives
   row bounds (and the row-length check) from them — the same derivation
   whether the newlines were found by one domain or stitched together from
   per-chunk parallel scans, so sequential and parallel builds produce
   identical maps and identical structured errors. *)

let collect_newlines s ~source ~lo ~hi ~in_quotes =
  let acc = ref [] in
  let q = ref in_quotes in
  for i = lo to hi - 1 do
    match String.unsafe_get s i with
    | '"' -> q := not !q
    | '\n' when not !q ->
      acc := i :: !acc;
      Vida_governor.Governor.poll ~source ();
      Epoch.check ~source ()
    | _ -> ()
  done;
  List.rev !acc

let derive_rows ?(first_start = 0) ~source s len newlines =
  let k = Array.length newlines in
  let last_start = if k = 0 then first_start else newlines.(k - 1) + 1 in
  let trailing = last_start < len in
  let n = k + if trailing then 1 else 0 in
  let starts = Array.make n 0 and stops = Array.make n 0 in
  let row_start = ref first_start in
  Array.iteri
    (fun idx i ->
      let stop = if i > 0 && String.unsafe_get s (i - 1) = '\r' then i - 1 else i in
      starts.(idx) <- !row_start;
      stops.(idx) <- stop;
      row_start := i + 1)
    newlines;
  if trailing then (
    starts.(n - 1) <- last_start;
    stops.(n - 1) <- len);
  for idx = 0 to n - 1 do
    Vida_error.Limits.check_row_bytes ~source ~offset:starts.(idx)
      (stops.(idx) - starts.(idx))
  done;
  (starts, stops)

let scan_rows ?(domains = 1) buf =
  let source = Raw_buffer.path buf in
  let { Raw_buffer.data = s; len } = Raw_buffer.contents buf in
  Io_stats.add_bytes_read len;
  let d = Morsel.domains_for_bytes ~domains len in
  let newlines =
    if d <= 1 then
      Array.of_list (collect_newlines s ~source ~lo:0 ~hi:len ~in_quotes:false)
    else (
      let ranges = Morsel.chunks len d in
      let nchunks = Array.length ranges in
      (* pass 1: quote count per chunk; the prefix parity tells each chunk
         whether it starts inside a quoted field *)
      let quotes =
        Morsel.run ~domains:d ~tasks:nchunks (fun c ->
            let lo, hi = ranges.(c) in
            let n = ref 0 in
            for i = lo to hi - 1 do
              if String.unsafe_get s i = '"' then incr n
            done;
            !n)
      in
      let parity = Array.make nchunks false in
      let acc = ref 0 in
      Array.iteri
        (fun c q ->
          parity.(c) <- !acc land 1 = 1;
          acc := !acc + q)
        quotes;
      (* pass 2: quote-aware newline collection per chunk, stitched in
         file order *)
      let per_chunk =
        Morsel.run ~domains:d ~tasks:nchunks (fun c ->
            let lo, hi = ranges.(c) in
            Array.of_list (collect_newlines s ~source ~lo ~hi ~in_quotes:parity.(c)))
      in
      Array.concat (Array.to_list per_chunk))
  in
  derive_rows ~source s len newlines

let build ?(delim = ',') ?(header = true) ?domains buf =
  let starts, stops = scan_rows ?domains buf in
  let header_names, starts, stops =
    if header && Array.length starts > 0 then (
      let line =
        Raw_buffer.slice buf ~pos:starts.(0) ~len:(stops.(0) - starts.(0))
      in
      ( Csv.split_line ~delim line,
        Array.sub starts 1 (Array.length starts - 1),
        Array.sub stops 1 (Array.length stops - 1) ))
    else ([], starts, stops)
  in
  { buf; delim; header_names; row_starts = starts; row_stops = stops;
    cols = Hashtbl.create 16 }

let row_count t = Array.length t.row_starts
let buffer t = t.buf

(* number of leading entries of the sorted [starts] below [size] *)
let count_below starts size =
  let lo = ref 0 and hi = ref (Array.length starts) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if starts.(mid) < size then lo := mid + 1 else hi := mid
  done;
  !lo

(* A row ends at the newline just before the next row's start, the last
   row at the newline after its stop (past a '\r'), if the file has one. *)
let rows_within t ~size =
  let k = count_below t.row_starts size in
  if k = 0 then None
  else
    let ended =
      if k < row_count t then t.row_starts.(k) <= size
      else
        let { Raw_buffer.data; len } = Raw_buffer.contents t.buf in
        let stop = t.row_stops.(k - 1) in
        stop < len
        && (if String.unsafe_get data stop = '\n' then stop else stop + 1) < size
    in
    if ended then Some k else None
let column_names t = t.header_names
let delim t = t.delim

let row_bounds t row =
  if row < 0 || row >= row_count t then
    Vida_error.invalid_request ~source:(Raw_buffer.path t.buf)
      "Positional_map.row_bounds: row %d out of range" row;
  (t.row_starts.(row), t.row_stops.(row))

let populated_columns t =
  List.sort compare (Hashtbl.fold (fun c _ acc -> c :: acc) t.cols [])

(* Nearest recorded anchor at or before [col]: (anchor_col, offsets array
   option). Column 0 is implicitly anchored at the row start. *)
let anchor t col =
  let best = ref (0, None) in
  Hashtbl.iter
    (fun c offsets -> if c <= col && c >= fst !best then best := (c, Some offsets))
    t.cols;
  !best

(* Fill offset [arrays] (pairs of column index and a full-length array)
   for rows [row_lo, row_hi) — the shared core of a full [populate] and
   the tail-only pass of [extend]. Each row is one walk from the anchor
   through the requested columns in ascending order, charged once for the
   fields it visited. *)
let populate_range t arrays ~row_lo ~row_hi =
  match List.sort (fun (a, _) (b, _) -> compare a b) arrays with
  | [] -> ()
  | (first, _) :: _ as sorted ->
    let targets = Array.of_list sorted in
    let anchor_col, anchor_offsets = anchor t first in
    let source = Raw_buffer.path t.buf in
    let s = (Raw_buffer.contents t.buf).data in
    let visited = ref 0 in
    for row = row_lo to row_hi - 1 do
      Vida_governor.Governor.poll ~source ();
      let row_end = t.row_stops.(row) in
      let pos =
        ref
          (match anchor_offsets with
          | Some offs -> offs.(row)
          | None -> t.row_starts.(row))
      in
      let col = ref anchor_col in
      visited := 0;
      for j = 0 to Array.length targets - 1 do
        let c, arr = targets.(j) in
        (* a row too short to reach [c] leaves the walk at the past-end
           sentinel, which [field] reads back as the empty field *)
        pos := Csv.walk_fields ~delim:t.delim s ~row_end ~visited !pos (c - !col);
        col := c;
        arr.(row) <- !pos
      done;
      if !visited > 0 then Io_stats.add_fields_tokenized !visited
    done

let populate t cols =
  let missing = List.sort_uniq compare (List.filter (fun c -> not (Hashtbl.mem t.cols c)) cols) in
  if missing <> [] then (
    let nrows = row_count t in
    let arrays = List.map (fun c -> (c, Array.make nrows 0)) missing in
    populate_range t arrays ~row_lo:0 ~row_hi:nrows;
    List.iter (fun (c, arr) -> Hashtbl.replace t.cols c arr) arrays)

let field t ~row ~col =
  if row < 0 || row >= row_count t then
    Vida_error.invalid_request ~source:(Raw_buffer.path t.buf)
      "Positional_map.field: row %d out of range" row;
  Io_stats.add_index_probes 1;
  let row_end = t.row_stops.(row) in
  let anchor_col, anchor_offsets = anchor t col in
  let start_pos =
    match anchor_offsets with Some offs -> offs.(row) | None -> t.row_starts.(row)
  in
  let s = (Raw_buffer.contents t.buf).data in
  let pos = Csv.skip_fields_str ~delim:t.delim s ~row_end start_pos (col - anchor_col) in
  if pos > row_end then ""
  else fst (Csv.field_content_str ~delim:t.delim s ~row_end pos)

let fields t ~row ~cols =
  let sorted = List.sort_uniq compare cols in
  let results = Hashtbl.create (List.length sorted) in
  let row_end = t.row_stops.(row) in
  let s = (Raw_buffer.contents t.buf).data in
  (* walk ascending columns, reusing the position reached so far *)
  let _ =
    List.fold_left
      (fun (cur_col, cur_pos) col ->
        Io_stats.add_index_probes 1;
        let anchor_col, anchor_offsets = anchor t col in
        (* prefer whichever starting point is closer to [col] *)
        let from_col, from_pos =
          if anchor_col > cur_col then
            ( anchor_col,
              match anchor_offsets with
              | Some offs -> offs.(row)
              | None -> t.row_starts.(row) )
          else (cur_col, cur_pos)
        in
        let pos = Csv.skip_fields_str ~delim:t.delim s ~row_end from_pos (col - from_col) in
        if pos > row_end then (
          Hashtbl.replace results col "";
          (col, pos))
        else (
          let content, next = Csv.field_content_str ~delim:t.delim s ~row_end pos in
          Hashtbl.replace results col content;
          (col + 1, next)))
      (0, t.row_starts.(row))
      sorted
  in
  Array.of_list (List.map (fun c -> Hashtbl.find results c) cols)

let record_while_scanning ?(from = 0) t ~cols f =
  let cols_sorted = List.sort_uniq compare cols in
  populate t cols_sorted;
  let nrows = row_count t in
  let source = Raw_buffer.path t.buf in
  let s = (Raw_buffer.contents t.buf).data in
  (* hoisted out of the row loop: the offset array per sorted column, the
     sorted-position of each requested column, and a scratch buffer for
     the sorted extraction — only the per-row result array the callback
     receives is freshly allocated *)
  let offs = Array.of_list (List.map (fun c -> Hashtbl.find t.cols c) cols_sorted) in
  let nsorted = Array.length offs in
  let sorted_arr = Array.of_list cols_sorted in
  let request_idx =
    Array.of_list
      (List.map
         (fun c ->
           let rec find i = if sorted_arr.(i) = c then i else find (i + 1) in
           find 0)
         cols)
  in
  let nreq = Array.length request_idx in
  let scratch = Array.make (max 1 nsorted) "" in
  for row = from to nrows - 1 do
    Vida_governor.Governor.poll ~source ();
    let row_end = t.row_stops.(row) in
    for j = 0 to nsorted - 1 do
      let pos = offs.(j).(row) in
      scratch.(j) <-
        (if pos > row_end then ""
         else fst (Csv.field_content_str ~delim:t.delim s ~row_end pos))
    done;
    let by_request = Array.init nreq (fun r -> scratch.(request_idx.(r))) in
    f row by_request
  done

let footprint t =
  let ncols = Hashtbl.length t.cols in
  8 * (Array.length t.row_starts * (2 + ncols))

(* --- incremental extension after an append --- *)

(* Extend a map built over the old prefix of [buf] to cover appended
   bytes. The last old row may have been partial (no trailing newline
   when the writer paused mid-record), so the rescan resumes from the
   {e start} of that row — row starts are always outside quotes, making
   [in_quotes:false] sound — and everything from there is re-derived.
   Old rows, and the populated column offsets over them, carry over
   verbatim; only tail rows are tokenized. *)
let extend t buf =
  let nrows_old = row_count t in
  if nrows_old = 0 then build ~delim:t.delim ~header:(t.header_names <> []) buf
  else (
    let source = Raw_buffer.path buf in
    let { Raw_buffer.data = s; len } = Raw_buffer.contents buf in
    let keep = nrows_old - 1 in
    let resume = t.row_starts.(keep) in
    Io_stats.add_bytes_read (len - resume);
    let newlines =
      Array.of_list (collect_newlines s ~source ~lo:resume ~hi:len ~in_quotes:false)
    in
    let tail_starts, tail_stops =
      derive_rows ~first_start:resume ~source s len newlines
    in
    (* appends copy the old cells with plain initializing stores (a blit
       into a fresh major-heap array pays a write barrier per cell) *)
    let extended old tail =
      let arr = Array.append old (Array.sub tail 1 (Array.length tail - 1)) in
      arr.(keep) <- tail.(0);
      arr
    in
    let row_starts = extended t.row_starts tail_starts in
    let row_stops = extended t.row_stops tail_stops in
    let t' =
      { buf; delim = t.delim; header_names = t.header_names; row_starts; row_stops;
        cols = Hashtbl.create 16 }
    in
    let nrows' = Array.length row_starts in
    let arrays =
      List.map
        (fun c ->
          (c, Array.append (Hashtbl.find t.cols c) (Array.make (nrows' - nrows_old) 0)))
        (populated_columns t)
    in
    populate_range t' arrays ~row_lo:keep ~row_hi:nrows';
    List.iter (fun (c, arr) -> Hashtbl.replace t'.cols c arr) arrays;
    t')

(* Structural equality over everything persisted/derived — the
   differential oracle for incremental == full-rebuild tests. *)
let equal_structure a b =
  a.delim = b.delim
  && a.header_names = b.header_names
  && a.row_starts = b.row_starts
  && a.row_stops = b.row_stops
  && populated_columns a = populated_columns b
  && List.for_all
       (fun c -> Hashtbl.find a.cols c = Hashtbl.find b.cols c)
       (populated_columns a)

(* --- persistence --- *)

(* VPM3: frames inside an {!Atomic_sidecar} envelope (temp+rename
   publish, per-frame CRC32, generation counter). VPM2 and earlier wrote
   bare bytes; they fail the magic check and are quarantined like any
   other unreadable sidecar — auxiliary structures are disposable. *)
let sidecar_magic = "VPM3"

let enc_int b v =
  for shift = 0 to 7 do
    Buffer.add_char b (Char.chr ((v lsr (8 * shift)) land 0xFF))
  done

let enc_array b arr =
  enc_int b (Array.length arr);
  Array.iter (enc_int b) arr

let dec_int frame pos =
  if !pos + 8 > String.length frame then failwith "frame too short";
  let v = ref 0 in
  for shift = 7 downto 0 do
    v := (!v lsl 8) lor Char.code frame.[!pos + shift]
  done;
  pos := !pos + 8;
  !v

let dec_count frame pos =
  (* a corrupted length must not drive a giant allocation: no array in a
     frame can hold more entries than the frame has bytes *)
  let n = dec_int frame pos in
  if n < 0 || n > String.length frame then failwith "implausible count";
  n

let dec_array frame pos = Array.init (dec_count frame pos) (fun _ -> dec_int frame pos)

let save t ~path =
  let meta = Buffer.create 128 in
  Buffer.add_string meta (Fingerprint.encode (Fingerprint.of_buffer t.buf));
  Buffer.add_char meta t.delim;
  enc_int meta (List.length t.header_names);
  List.iter
    (fun name ->
      enc_int meta (String.length name);
      Buffer.add_string meta name)
    t.header_names;
  let starts = Buffer.create 1024 and stops = Buffer.create 1024 in
  enc_array starts t.row_starts;
  enc_array stops t.row_stops;
  let cols = Buffer.create 1024 in
  enc_int cols (Hashtbl.length t.cols);
  Hashtbl.iter
    (fun col offsets ->
      enc_int cols col;
      enc_array cols offsets)
    t.cols;
  ignore
    (Atomic_sidecar.write ~path ~magic:sidecar_magic
       [ Buffer.contents meta; Buffer.contents starts; Buffer.contents stops;
         Buffer.contents cols ])

let load ?(delim = ',') buf ~path =
  let source = Raw_buffer.path buf in
  let stale reason =
    Result.Error (Vida_error.Stale_auxiliary { source; auxiliary = path; reason })
  in
  let corrupt reason =
    (* a torn/corrupt sidecar is moved aside so it is diagnosable but
       never consulted again; the caller rebuilds from raw *)
    match Atomic_sidecar.quarantine path with
    | Some dest -> stale (Printf.sprintf "%s; quarantined to %s" reason dest)
    | None -> stale reason
  in
  match Atomic_sidecar.read ~path ~magic:sidecar_magic with
  | Atomic_sidecar.No_sidecar -> stale "no sidecar"
  | Atomic_sidecar.Bad reason -> corrupt ("sidecar corrupt: " ^ reason)
  | Atomic_sidecar.Sidecar { generation = _; frames = [ meta; starts; stops; colsf ] }
    -> (
    match
      let pos = ref 0 in
      let stored_fp =
        match Fingerprint.decode meta ~pos:0 with
        | Some fp ->
          pos := Fingerprint.encoded_size;
          fp
        | None -> failwith "unreadable fingerprint"
      in
      if not (Fingerprint.equal stored_fp (Fingerprint.of_buffer buf)) then
        failwith "data file changed since the sidecar was written";
      if !pos >= String.length meta then failwith "frame too short";
      let stored_delim = meta.[!pos] in
      incr pos;
      if stored_delim <> delim then failwith "delimiter mismatch";
      let nheader = dec_count meta pos in
      let header_names =
        List.init nheader (fun _ ->
            let len = dec_count meta pos in
            if !pos + len > String.length meta then failwith "frame too short";
            let name = String.sub meta !pos len in
            pos := !pos + len;
            name)
      in
      let p = ref 0 in
      let row_starts = dec_array starts p in
      let p = ref 0 in
      let row_stops = dec_array stops p in
      (* validate offsets against the data file before trusting them *)
      let data_len = Raw_buffer.length buf in
      if Array.length row_starts <> Array.length row_stops then
        failwith "row array length mismatch";
      Array.iteri
        (fun i start ->
          if start < 0 || row_stops.(i) < start || row_stops.(i) > data_len then
            failwith "row bounds outside the data file")
        row_starts;
      let cols = Hashtbl.create 16 in
      let p = ref 0 in
      let ncols = dec_count colsf p in
      for _ = 1 to ncols do
        let col = dec_int colsf p in
        let offsets = dec_array colsf p in
        if Array.length offsets <> Array.length row_starts then
          failwith "column array length mismatch";
        Hashtbl.replace cols col offsets
      done;
      { buf; delim; header_names; row_starts; row_stops; cols }
    with
    | t -> Ok t
    | exception Failure reason -> stale reason)
  | Atomic_sidecar.Sidecar _ -> corrupt "sidecar corrupt: unexpected frame shape"
