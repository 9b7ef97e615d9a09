module Engine = Hypar_core.Engine

type t = {
  healthy : Engine.t;
  degraded : Engine.t;
  fallback_kernels : int list;
  t_total_delta : int;
  slowdown_percent : float;
}

let of_runs ~healthy ~degraded =
  let fallback_kernels =
    List.filter
      (fun b -> not (List.mem b degraded.Engine.moved))
      healthy.Engine.moved
  in
  let t_total_delta =
    degraded.Engine.final.Engine.t_total - healthy.Engine.final.Engine.t_total
  in
  let slowdown_percent =
    if healthy.Engine.final.Engine.t_total = 0 then 0.0
    else
      100.0 *. float_of_int t_total_delta
      /. float_of_int healthy.Engine.final.Engine.t_total
  in
  { healthy; degraded; fallback_kernels; t_total_delta; slowdown_percent }

let pp ppf t =
  Format.fprintf ppf "@[<v>degradation delta for %s:@,"
    t.healthy.Engine.cdfg_name;
  Format.fprintf ppf "  healthy : t_total=%d (%s)@,"
    t.healthy.Engine.final.Engine.t_total
    (Engine.status_label t.healthy.Engine.status);
  Format.fprintf ppf "  degraded: t_total=%d (%s)@,"
    t.degraded.Engine.final.Engine.t_total
    (Engine.status_label t.degraded.Engine.status);
  Format.fprintf ppf "  delta   : %+d cycles (%+.1f%%)@," t.t_total_delta
    t.slowdown_percent;
  (match t.fallback_kernels with
  | [] -> Format.fprintf ppf "  fallback: none@,"
  | ks ->
    Format.fprintf ppf "  fallback: %s@,"
      (String.concat ", "
         (List.map (fun b -> Printf.sprintf "BB%d" b) ks)));
  List.iter
    (fun (b, reason) ->
      Format.fprintf ppf "  degraded skip BB%d: %s@," b
        (Engine.skip_reason_string reason))
    t.degraded.Engine.skipped;
  Format.fprintf ppf "@]"
