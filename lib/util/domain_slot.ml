type 'a t = 'a option Domain.DLS.key

let create () = Domain.DLS.new_key (fun () -> None)

let take t ~fits =
  let v = Domain.DLS.get t in
  Domain.DLS.set t None;
  match v with Some x when fits x -> Some x | Some _ | None -> None

let put t x = Domain.DLS.set t (Some x)

let get t ~fits ~build =
  let x = match take t ~fits with Some x -> x | None -> build () in
  put t x;
  x
