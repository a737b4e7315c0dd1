module C = Controller

type t = {
  apply : Delta.t -> View.applied;
  apply_batch : Delta.t list -> unit;
  replan : unit -> unit;
  view : unit -> View.t;
  utility : unit -> float;
  report : unit -> Counters.report;
  certify : unit -> (Certify.outcome * string, string) result;
  fire : Fault.event -> unit;
  close : unit -> unit;
}

let fire ctrl (e : Fault.event) =
  match e.kind with
  | Fault.Budget_shock _ | Fault.Stream_outage _ -> (
      match Fault.shock_delta (C.view ctrl) e.kind with
      | Some d -> ignore (C.absorb_shock ctrl d)
      | None -> ())
  | Fault.Task_exn ->
      (* The first replan attempt dies inside a pool task; the
         supervisor retries and the retry succeeds. *)
      Counters.note_fault (C.counters ctrl);
      ignore
        (Supervisor.supervised_replan
           ~inject:(fun ~attempt ->
             if attempt = 0 then Fault.raise_in_pool ())
           ctrl)
  | _ ->
      (* Storage faults attack the WAL/snapshot paths and replication
         faults the shipping layer; a lone controller has neither. *)
      ()

let of_controller ctrl =
  { apply = C.apply ctrl;
    apply_batch = C.apply_batch ctrl;
    replan = (fun () -> C.replan ctrl);
    view = (fun () -> C.view ctrl);
    utility = (fun () -> C.utility ctrl);
    report = (fun () -> C.report ctrl);
    certify =
      (fun () ->
        match Certify.sparse ~achieved:(C.utility ctrl) (C.view ctrl) with
        | Error msg -> Error (Printf.sprintf "REJECTED by checker (%s)" msg)
        | Ok (o, _) ->
            Counters.note_certificate (C.counters ctrl) ~ratio:o.Certify.ratio;
            Ok (o, "sparse"));
    fire = fire ctrl;
    close = ignore }
