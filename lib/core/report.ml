module Kernel = Hypar_analysis.Kernel

let markdown ?(top_kernels = 8) (r : Engine.t) =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# Partitioning report — %s" r.Engine.cdfg_name;
  line "";
  line "- platform: %s" r.Engine.platform.Platform.name;
  line "- clock ratio: T_FPGA = %d x T_CGC" r.Engine.platform.Platform.clock_ratio;
  line "- timing constraint: %d FPGA cycles" r.Engine.timing_constraint;
  line "- status: %s" (Engine.status_label r.Engine.status);
  line "- cycle reduction: %.1f%%" (Engine.reduction_percent r);
  line "";
  line "## Kernel analysis (Eq. 1)";
  line "";
  line "| BB | exec. freq | op weight | total weight |";
  line "|---:|-----------:|----------:|-------------:|";
  List.iter
    (fun (e : Kernel.entry) ->
      line "| %d | %d | %d | %d |" e.block_id e.exec_freq e.bb_weight
        e.total_weight)
    (Kernel.top r.Engine.analysis top_kernels);
  line "";
  line "## Engine trace (Eq. 2 after each movement)";
  line "";
  line "| step | moved BB | t_FPGA | t_coarse (CGC cyc) | t_comm | t_total | met |";
  line "|-----:|---------:|-------:|-------------------:|-------:|--------:|:---:|";
  line "| 0 | — | %d | %d (%d) | %d | %d | %s |" r.Engine.initial.Engine.t_fpga
    r.Engine.initial.Engine.t_coarse r.Engine.initial.Engine.t_coarse_cgc
    r.Engine.initial.Engine.t_comm r.Engine.initial.Engine.t_total
    (if r.Engine.initial.Engine.t_total <= r.Engine.timing_constraint then "yes"
     else "no");
  List.iter
    (fun (s : Engine.step) ->
      line "| %d | %d | %d | %d (%d) | %d | %d | %s |" s.Engine.step_index
        s.Engine.moved_block s.Engine.times.Engine.t_fpga
        s.Engine.times.Engine.t_coarse s.Engine.times.Engine.t_coarse_cgc
        s.Engine.times.Engine.t_comm s.Engine.times.Engine.t_total
        (if s.Engine.meets_constraint then "yes" else "no"))
    r.Engine.steps;
  (match r.Engine.skipped with
  | [] -> ()
  | skipped ->
    line "";
    line "Skipped kernels:";
    List.iter
      (fun (b, reason) ->
        line "- BB%d: %s" b (Engine.skip_reason_string reason))
      skipped);
  line "";
  line "## Final assignment";
  line "";
  line "| BB | side | freq | cycles/iteration | total cycles |";
  line "|---:|:----:|-----:|-----------------:|-------------:|";
  Array.iteri
    (fun i freq ->
      if freq > 0 then begin
        let moved = List.mem i r.Engine.moved in
        let per_iter =
          if moved then
            match r.Engine.coarse_latency.(i) with
            | Some lat -> Platform.cgc_to_fpga_cycles r.Engine.platform lat
            | None -> 0
          else r.Engine.fine_cycles_per_iter.(i)
        in
        line "| %d | %s | %d | %d | %d |" i
          (if moved then "CGC" else "FPGA")
          freq per_iter (per_iter * freq)
      end)
    r.Engine.freq;
  Buffer.contents buf
