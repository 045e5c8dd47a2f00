package repro.index

/** Common probe interface over super-covering cells so the join kernels and
  * benchmarks treat ACT, the sorted vector (LB) and the B-tree (GBT)
  * uniformly: map a level-30 (leaf) cell id to the tagged value entry of
  * the unique super-covering cell containing it, or
  * [[repro.act.TaggedEntry.NoHit]].
  */
trait CellIndex extends Serializable {
  /** Probe with the query point's leaf cell id. */
  def probe(leafId: Long): Long

  /** Node/step accesses [[probe]] makes for `leafId` — the paper's
    * per-point access metric (Table 5). Pure, like `probe`.
    */
  def accesses(leafId: Long): Int

  /** In-memory size estimate in bytes, matching how the paper sizes each
    * structure (arrays of 8-byte slots / 16-byte pairs / 256-byte nodes).
    */
  def sizeBytes: Long
}
