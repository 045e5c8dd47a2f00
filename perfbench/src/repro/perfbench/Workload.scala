package repro.perfbench

/** One benchmark workload: a fixed polygon set, a join mode and a point
  * distribution. Points (and training points) are generated from the
  * command-line seed; the polygon sets never change.
  */
final case class Workload(
    name: String,
    dataset: String,
    exact: Boolean,
    precision: Option[Double],
    taxi: Boolean,
    points: Int,
    trainPoints: Int,
) {
  def pointDistribution: String = if (taxi) "taxi" else "uniform"
}

object Workload {

  /** ACT4 (4 quadtree levels per trie level): the operator's default fanout. */
  val BitsPerLevel = 8

  /** Training may grow the ACT by at most this much (Table 6 setting). */
  val TrainBudgetBytes: Long = 16L << 20

  /** Training points come from "another year": a seed derived from the
    * workload seed but never equal to it.
    */
  def trainSeed(seed: Long): Long = seed ^ 0x5eed2009L

  // Why each workload exists is recorded in perfbench/README.md.
  val all: Seq[Workload] = Seq(
    // Build-heavy and out of cache: 2.2 M cells, a ~184 MiB ACT4, uniform
    // probes, no PIP; the per-join broadcast dominates the join.
    Workload("census-approx-4m", "census", exact = false, precision = Some(4.0),
             taxi = false, points = 4000000, trainPoints = 0),
    // Trivial set-up, in-cache probes, ~0.2 PIP tests per point: exposes the
    // operator's scan/decode/emit overhead and the geo layer.
    Workload("neighborhoods-exact", "neighborhoods", exact = true, precision = None,
             taxi = true, points = 4000000, trainPoints = 0),
    // The write path: ActIndex.train with 100 K historical points, then a
    // shallow in-cache probe with rare but costly PIP tests.
    Workload("boroughs-exact-trained", "boroughs", exact = true, precision = None,
             taxi = true, points = 4000000, trainPoints = 100000),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
