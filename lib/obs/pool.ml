let workers ~jobs n = max 1 (min (min jobs n) (Domain.recommended_domain_count ()))

let map ~jobs f xs =
  let n = Array.length xs in
  let workers = workers ~jobs n in
  if workers = 1 then Array.map f xs
  else begin
    let out = Array.make n None in
    (* worker [d] owns indices d, d+workers, d+2*workers, ... — disjoint
       slots, so the unsynchronised writes below never race.  A raise is
       returned, not propagated, so every domain is joined before any
       exception leaves [map]. *)
    let worker d () =
      let i = ref d in
      match
        while !i < n do
          out.(!i) <- Some (f xs.(!i));
          i := !i + workers
        done
      with
      | () -> None
      | exception e -> Some e
    in
    let spawned =
      List.init (workers - 1) (fun d -> Domain.spawn (worker (d + 1)))
    in
    let own = worker 0 () in
    let raised = own :: List.map Domain.join spawned in
    List.iter (function Some e -> raise e | None -> ()) raised;
    Array.map Option.get out
  end
