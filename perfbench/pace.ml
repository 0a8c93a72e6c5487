(* The host's pace, read beside the workload.

   The bench host shares its cores and memory with other tenants, and
   their load changes this process's speed by up to a factor of three,
   in phases of a fraction of a second to many minutes.  To make
   timings comparable across runs, a fixed kernel runs beside the
   workload: explicitly between serve requests, and on an interval timer
   inside pieces that are one long library call.  Each timed piece is
   scaled by the kernel's nominal time over its mean time during that
   piece, so a reported time is the time the piece would take at the
   pace where the kernel runs in its nominal time.  The kernel's own
   runs are left out of the piece.

   The kernel has three parts, since each kind of interference slows
   some code more than other code: stores forwarded to dependent loads
   in a 64-word table, a store stream through a 2 MiB ring (the pattern
   of allocation in the minor heap) with reads just behind it, and six
   independent integer chains.  It allocates nothing, so a collection
   never runs inside it and the workload's heap does not change its
   time.  On the bench host (Intel Xeon, 2 vCPUs) its time followed the
   window times of all three workloads more closely than any one part
   alone, pointer chases over 1 to 64 MiB, or a small allocating loop;
   even traffic-churn, whose state is ~650 MB, followed it better than a
   DRAM pointer chase.  The nominal time is roughly the kernel's median
   there, so scaled times stay close to the ones measured there. *)

let table = Array.make 64 0

let cells = Array.make 4 0

let ring = Array.make (1 lsl 18) 0

let ring_pos = ref 0

let forward () =
  let acc = ref 0 in
  for i = 1 to 10_000 do
    cells.(0) <- i;
    cells.(1) <- !acc;
    cells.(2) <- 0;
    acc := !acc + cells.(3) + table.(i land 63);
    table.((i * 7) land 63) <- !acc
  done;
  !acc

let stream () =
  let mask = Array.length ring - 1 in
  let acc = ref 0 in
  for i = 1 to 5_000 do
    let p = !ring_pos in
    ring.(p) <- i;
    ring.(p + 1) <- !acc;
    ring.(p + 2) <- p;
    ring.(p + 3) <- 1;
    acc := !acc + ring.((p - 4) land mask) + table.(i land 63);
    ring_pos := (p + 4) land mask
  done;
  !acc

let chains () =
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 and e = ref 5 and f = ref 6 in
  for i = 1 to 20_000 do
    a := !a + (i lxor !b);
    b := !b lxor (!b lsl 7) + i;
    c := (!c lsr 3) + !a;
    d := !d + (!d lsl 5) + i;
    e := !e lxor (!c + i);
    f := !f + (!e lsr 2)
  done;
  !a + !b + !c + !d + !e + !f

let nominal_ns = 150_000.0

(* kernel time and runs since the last [reset] *)
let spent_ns = ref 0

let runs = ref 0

let sample () =
  let t0 = Util.now_ns () in
  ignore (Sys.opaque_identity (forward () + stream () + chains ()));
  spent_ns := !spent_ns + (Util.now_ns () - t0);
  incr runs

let reset () =
  spent_ns := 0;
  runs := 0

(* every run since the process started, for the log *)
let total_ns = ref 0

let total_runs = ref 0

let mean_us () = float_of_int !total_ns /. float_of_int (max 1 !total_runs) *. 1e-3

(* The factor that scales a time measured since the last [reset] to the
   nominal pace. *)
let scale () =
  total_ns := !total_ns + !spent_ns;
  total_runs := !total_runs + !runs;
  nominal_ns /. (float_of_int !spent_ns /. float_of_int (max 1 !runs))

let () = Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ()))

let timer interval_s =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = interval_s; it_value = interval_s })

(* [f ()] with the kernel run once before, once after and every
   [interval_s] inside it.  Returns the result, the wall time in ns less
   the kernel runs inside, and the scale of that time to the nominal
   pace. *)
let timed ?(interval_s = 0.02) f =
  reset ();
  sample ();
  let t0 = Util.now_ns () in
  let inside0 = !spent_ns in
  timer interval_s;
  let x = Fun.protect ~finally:(fun () -> timer 0.0) f in
  let wall = Util.now_ns () - t0 - (!spent_ns - inside0) in
  sample ();
  (x, float_of_int wall, scale ())
