(* SplitMix64 (Steele, Lea & Flood): a tiny, fast, well-mixed generator
   whose output is a pure function of its 64-bit state.  The whole
   fuzzing subsystem keys off this stream, so portability matters more
   than period: Int64 arithmetic behaves identically on every platform,
   unlike [Random] whose implementation is version-dependent. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = Int64.mul (Int64.of_int seed) 0x2545F4914F6CDD1DL }

(* top 62 bits, always non-negative as a native int *)
let bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)
let int t bound = if bound <= 1 then 0 else bits t mod bound
let range t lo hi = lo + int t (hi - lo + 1)
let bool t = Int64.logand (next t) 1L = 1L
let choose t arr = arr.(int t (Array.length arr))

let derive ~seed index =
  let t =
    {
      state =
        Int64.logxor
          (Int64.mul (Int64.of_int seed) 0x2545F4914F6CDD1DL)
          (Int64.mul (Int64.of_int (index + 1)) golden);
    }
  in
  bits t
