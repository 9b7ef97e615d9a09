let render ?(top = 8) ~title analysis =
  let buf = Buffer.create 512 in
  let rows = Kernel.top analysis top in
  Buffer.add_string buf (Printf.sprintf "%s\n" title);
  Buffer.add_string buf
    "Basic Block no. | exec. freq. | Operations weight | Total weight\n";
  Buffer.add_string buf
    "----------------+-------------+-------------------+-------------\n";
  List.iter
    (fun (e : Kernel.entry) ->
      Buffer.add_string buf
        (Printf.sprintf "%15d | %11d | %17d | %12d\n" e.block_id e.exec_freq
           e.bb_weight e.total_weight))
    rows;
  Buffer.contents buf
