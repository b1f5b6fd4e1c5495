(** First-order energy model for a PLiM execution.

    RRAM writes dominate energy: a SET/RESET pulse costs orders of
    magnitude more than a read.  The model distinguishes write operations
    that actually toggle the resistance state (full switching energy)
    from redundant writes (the cell is biased but does not switch), and
    charges each operand read.  The constants follow HfOx RRAM ballpark
    figures from the literature ([5] and the DATE'16 PLiM paper): reads
    1 pJ, switching writes 10 pJ, non-switching write pulses 2 pJ. *)

type report = {
  reads : int;
  writes : int;
  transitions : int;
  total_pj : float;
  per_instruction_pj : float;
}

val of_run : Plim_rram.Crossbar.t -> Plim_controller.run_stats -> report
(** [of_run xbar stats] accounts the energy of one completed execution
    at the model's constants from the crossbar's write/transition
    counters and the controller's cycle statistics. *)

val pp_report : Format.formatter -> report -> unit
