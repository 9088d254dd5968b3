(** Snapshot of one [capsim sim] / [capsim chaos] run: the spec needed
    to rebuild the world and configuration deterministically, plus the
    simulator's captured mid-run state.

    The world itself is not serialised (it embeds sampler closures and
    can be hundreds of megabytes); instead the spec records the
    generation recipe — scenario notation and seed — and a content
    {!fingerprint} of the generated world. Resume regenerates the
    world from the recipe and refuses to continue if the fingerprint
    differs, so a snapshot can never silently resume against the wrong
    topology. *)

type command = Sim | Chaos

type spec = {
  command : command;
  scenario : string;  (** notation exactly as given on the command line *)
  seed : int;
  algorithm : string;
  buckets : int option;
      (** [Some n]: solve over client aggregates with [n] coordinate
          clusters per zone ([sim --aggregate --buckets n]) *)
  duration : float;
  policy : Cap_sim.Policy.t;
  roam : bool;
  flash : Cap_sim.Dve_sim.flash_crowd option;
  diurnal_amplitude : float option;
  faults : Cap_faults.Fault.schedule;
      (** fully resolved (no symbolic ['max'] servers) *)
  failover_moves : int;
  world_fingerprint : string;
}

type t = {
  spec : spec;
  state : Cap_sim.Dve_sim.checkpoint;
}

val kind : string
(** Envelope payload-kind tag for sim-run snapshots. *)

val config : spec -> Cap_util.Rng.t -> Cap_model.World.t -> Cap_sim.Dve_sim.config
(** The simulator configuration the spec describes, for the world it
    regenerates. Splits [rng] once, for the diurnal model, iff
    [diurnal_amplitude] is set — so it must be called at the same point
    of the setup in the original run and on resume. *)

val solver : spec -> (Cap_core.Two_phase.t, string) result
(** The algorithm the run solves with: the named one, or its aggregated
    form when [buckets] is set. [Error] names an algorithm this binary
    does not know. *)

val fingerprint : Cap_model.World.t -> string
(** Content hash of a generated world: scenario notation, server
    placement, capacities, regions, client placement and the
    inter-server delay structure. Equal for worlds generated from the
    same scenario and seed by the same binary. *)

val save :
  ?io:Cap_service.Io.t -> path:string -> t -> (unit, Envelope.error) result
(** Atomically write the snapshot (see {!Envelope.write}). *)

val load : path:string -> (t, Envelope.error) result
(** Read and verify a snapshot written by {!save}. *)

val describe : t -> string
(** One line for logs: command, scenario, seed, checkpoint time and
    live-client count. *)
