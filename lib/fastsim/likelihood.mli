(** Likelihood ratio of a mean-twisted self-similar Gaussian
    background process (paper Appendix B, Eqs 35–48), generalized to
    time-varying twist profiles.

    The twisted process is [X'_k = X_k + m_k] for a deterministic
    profile [m] ({!Twist.t}; the paper's case is [m_k = m*]).
    Conditionally on the past, [X] and [X'] are Gaussian with the
    same Durbin–Levinson variance [v_k]; the conditional means differ
    by [delta_k = m_k - sum_j phi_{k,j} m_{k-j}]. Writing [eps_k] for
    the innovation actually drawn when generating the path under the
    twisted law, the per-step log likelihood ratio [log (f_X/f_X')]
    at the twisted sample collapses to

    [log L_k = -(2 eps_k delta_k + delta_k^2) / (2 v_k)]

    accumulated in log space (products of thousands of ratios
    underflow doubles long before they stop carrying information).
    For [k = 0] with a constant profile this is exactly the paper's
    Eq (48).

    [delta_k] depends only on the table and the profile, so it is
    precomputed once into a {!plan} and shared across the thousands
    of replications of an importance-sampling run (for the constant
    profile the row sums already cached in the table make this
    O(n)). *)

type plan
(** Precomputed per-step [delta_k] (and variances) for one
    (table, profile) pair. *)

val plan : table:Ss_fractal.Hosking.Table.t -> profile:Twist.t -> plan
(** O(n) for zero/constant profiles, O(n^2) once for general ones. *)

val plan_profile : plan -> Twist.t
(** The twist profile the plan was built for. *)

(** {2 Streaming accumulator}

    The accumulator follows the truncated-Hosking recursion used by
    {!Ss_fractal.Hosking.Block} (and so by [Ss_mux.Source]'s model
    sources): rows are exact up to [order = Table.length - 1], after
    which the AR(order) filter is frozen, so [delta_k] and [v_k] for
    [k >= order] come from the clamped row. Memory stays O(order) for
    any horizon. For constant profiles the tail delta is a single
    cached value; for general profiles a ring buffer of the last
    [order] shifts feeds one conditional-mean evaluation per step.
    For [k < Table.length] step [k] reads the plan's [delta_k] and
    the table's [v_k] directly. *)

type stream
(** Mutable per-replication streaming accumulator. *)

val stream_of_plan : plan -> stream
(** A fresh streaming accumulator (O(order)). *)

val stream : table:Ss_fractal.Hosking.Table.t -> profile:Twist.t -> stream

val stream_reset : stream -> unit
(** Reuse the accumulator for a new replication. *)

val stream_step : stream -> k:int -> innovation:float -> unit
(** Record step [k]'s innovation [eps_k = x_k - E(X_k | past)] (the
    value actually added to the conditional mean when sampling) under
    the truncated recursion. Steps must be fed in order 0, 1, 2, ...
    between resets; any [k] is accepted (there is no table-length
    ceiling).
    @raise Invalid_argument on out-of-order steps. *)

val stream_log_ratio : stream -> float
(** Accumulated [log L] up to the last step fed. *)

val stream_steps : stream -> int
(** Number of steps fed since the last reset. *)
