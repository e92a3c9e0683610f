let step what = Prog.read ~fp:(Footprint.const Footprint.pure) ("retry(" ^ what ^ ")") (fun _ -> ())

let bounded what n op =
  let rec attempt n =
    Prog.bind op (fun r ->
        if not (Fault.is_eio r) then Prog.return r
        else if n > 0 then Prog.bind (step what) (fun () -> attempt (n - 1))
        else Prog.return Fault.err_value)
  in
  attempt n

let unbounded what op =
  let rec attempt () =
    Prog.bind op (fun r ->
        if Fault.is_eio r then Prog.bind (step what) attempt else Prog.return ())
  in
  attempt ()
