(** One value per domain: the last workspace a domain built, kept for
    its next run.

    Workspaces over a network (fault-strip scratch, routers, a traffic
    fabric) cost far more to build than to reset, and the trial engine's
    worker domains persist across chunks and calls.  A slot keeps the
    last value each domain built, so repeated runs on one network build
    it once per domain.  A slot is [Domain.DLS] state: a value never
    leaves the domain that built it, and no two domains share one. *)

type 'a t

val create : unit -> 'a t
(** A slot, empty on every domain. *)

val get : 'a t -> fits:('a -> bool) -> build:(unit -> 'a) -> 'a
(** This domain's value when [fits] holds for it, left in the slot;
    otherwise [build ()], which replaces it.  The old value leaves the
    slot before [build] runs, so the slot never keeps two alive. *)

val take : 'a t -> fits:('a -> bool) -> 'a option
(** Empty this domain's slot and return its value when [fits] holds for
    it.  For a value the caller changes while it runs: until {!put}
    returns it, a nested user finds the slot empty, and a run that raises
    leaves nothing half-changed behind. *)

val put : 'a t -> 'a -> unit
(** Store a value in this domain's slot, replacing what it held. *)
