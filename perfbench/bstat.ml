(* Clock, exact quantiles over raw samples, and tail counts.

   Every percentile the benchmark prints is Sf_stats.Quantile over the
   raw samples, never Sf_obs.Histo: its power-of-two buckets report
   bucket upper bounds, which can exceed the largest sample observed. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* NaN for an empty sample (printed as 0 with n=0), where
   Sf_stats.Quantile raises. *)
let quantile a q = if Array.length a = 0 then nan else Sf_stats.Quantile.quantile a ~q

(* Samples strictly above the [q] quantile: how many observations a
   tail percentile rests on. *)
let beyond a q =
  let v = quantile a q in
  Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 a
