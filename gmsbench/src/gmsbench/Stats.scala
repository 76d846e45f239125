package gmsbench

/** Order statistics over one run's samples. */
object Stats {

  def median(xs: collection.Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val k = s.length / 2
    if (s.length % 2 == 1) s(k) else (s(k - 1) + s(k)) / 2
  }

  /** A tail percentile, the number of samples beyond it, and the sample count. */
  final case class Tail(value: Double, percentile: Double, beyond: Int, samples: Int)

  /** The highest percentile that keeps `min(10, S/4)` samples beyond it.
    * With at least 40 samples that is the highest percentile with ten
    * samples beyond it; shorter runs fall back to a percentile no higher than
    * p75, so the reported tail never rests on fewer than a quarter of the
    * samples.
    */
  def tail(xs: collection.Seq[Double]): Tail = {
    require(xs.nonEmpty, "tail of no samples")
    val s = xs.sorted
    val beyond = math.min(10, s.length / 4)
    val idx = s.length - 1 - beyond
    Tail(s(idx), 100.0 * (s.length - beyond) / s.length, beyond, s.length)
  }
}
