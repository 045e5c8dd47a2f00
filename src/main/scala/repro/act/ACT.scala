package repro.act

import repro.core.RefList
import repro.grid.CellId
import scala.collection.mutable

/** Adaptive Cell Trie (§3.1.2): a static radix tree over 64-bit cell ids.
  *
  * Configurable fanout: `bitsPerLevel` β ∈ {2, 4, 8} — the paper's ACT1,
  * ACT2 and ACT4 variants (1, 2 and 4 quadtree levels per tree level).
  * Nodes are flat `Array[Long]` of 2^β tagged slots ([[TaggedEntry]]);
  * entry 0 is the sentinel ("no hit").
  *
  * Key extension (§3.1.2): a cell whose key length `2*level` is not a
  * multiple of β is decomposed into all descendant slots at the node's
  * granularity, replicating its value — so a node lookup is a single offset
  * access and no per-slot level needs storing.
  *
  * A common prefix is kept only at the root (the paper found deeper path
  * compression not worthwhile). The final tree level may consume fewer than
  * β bits when 60 is not a multiple of β (mirrors S2's 30-level ceiling).
  *
  * The trie is static: [[ACT.build]] writes every slot and nothing changes
  * it afterwards. Training (§3.3.1) refines the super covering and builds a
  * new trie from it ([[repro.core.ActIndex.train]]).
  */
final class ACT(val bitsPerLevel: Int) extends repro.index.CellIndex {
  require(Set(2, 4, 8).contains(bitsPerLevel), "fanout must be 2, 4 or 8 bits")

  val fanout: Int = 1 << bitsPerLevel

  /** Flat node store; node 0 is the root. A slot holds a tagged entry. */
  private val nodes = mutable.ArrayBuffer[Array[Long]](new Array[Long](fanout))

  /** Root common prefix: `prefixLen` bits (multiple of β), MSB-aligned in
    * the low-60-bit path space.
    */
  private[act] var prefixLen: Int = 0
  private var prefixBits: Long = 0L

  def nodeCount: Int = nodes.length
  /** Size in bytes: slot arrays (the paper's 8-byte-pointer arrays). */
  def sizeBytes: Long = nodes.length.toLong * fanout * 8

  /** True iff `path` lies outside the root common prefix. */
  @inline private def prefixMiss(path: Long): Boolean =
    prefixLen > 0 && (path >>> (60 - prefixLen)) != (prefixBits >>> (60 - prefixLen))

  /** Probe with a leaf (level-30) cell id; returns a value entry or NoHit.
    * Straight transcription of Listing 2 plus the root prefix check.
    */
  def probe(leafId: Long): Long = {
    val path = CellId.path60(leafId)
    if (prefixMiss(path)) return TaggedEntry.NoHit
    var e = TaggedEntry.pointer(0)
    var consumed = prefixLen
    while (TaggedEntry.tag(e) == TaggedEntry.TagPointer) {
      val avail = math.min(bitsPerLevel, 60 - consumed)
      val c = ((path >>> (60 - consumed - avail)) & ((1L << avail) - 1)).toInt
      e = nodes(TaggedEntry.pointerTarget(e))(c)
      consumed += avail
    }
    e
  }

  /** Nodes [[probe]] visits for `leafId`: its traversal depth (Table 4),
    * 0 when the root prefix check rejects the leaf.
    */
  def accesses(leafId: Long): Int = {
    val path = CellId.path60(leafId)
    if (prefixMiss(path)) return 0
    var e = TaggedEntry.pointer(0)
    var consumed = prefixLen
    var depth = 0
    while (TaggedEntry.tag(e) == TaggedEntry.TagPointer) {
      val avail = math.min(bitsPerLevel, 60 - consumed)
      val c = ((path >>> (60 - consumed - avail)) & ((1L << avail) - 1)).toInt
      e = nodes(TaggedEntry.pointerTarget(e))(c)
      consumed += avail
      depth += 1
    }
    depth
  }

  /** Bytes that splitting stored `cell` into its four children adds to the
    * trie built from the split covering, while the root prefix stays the
    * same: one node when `cell`'s key ends on a node boundary (the
    * children's keys need a node of their own), none when the children fit
    * in `cell`'s own slots (key extension). Training (§3.3.1) uses it to
    * count its memory budget.
    */
  def splitBytes(cell: Long): Long = {
    val bits = 2 * CellId.level(cell)
    if (bits > prefixLen && (bits - prefixLen) % bitsPerLevel == 0) fanout.toLong * 8 else 0L
  }

  /** Write value `entry` over the whole area of `cell` (key extension:
    * possibly several slots). Only [[ACT.build]] calls this, in id order
    * over disjoint cells, so no earlier cell's value lies on the descent.
    */
  private def writeCell(cell: Long, entry: Long): Unit = {
    val path = CellId.path60(cell)
    val bits = 2 * CellId.level(cell)
    var node = nodes(0)
    var consumed = prefixLen
    var done = false
    while (!done) {
      val avail = math.min(bitsPerLevel, 60 - consumed)
      val rem = bits - consumed
      if (rem > avail) {
        // Descend, adding the child node on the first cell below this slot.
        val c = ((path >>> (60 - consumed - avail)) & ((1L << avail) - 1)).toInt
        if (node(c) == TaggedEntry.NoHit) {
          nodes += new Array[Long](fanout)
          node(c) = TaggedEntry.pointer(nodes.length - 1)
        }
        node = nodes(TaggedEntry.pointerTarget(node(c)))
        consumed += avail
      } else {
        // Terminal node: the cell occupies 2^(avail-rem) consecutive slots.
        val highBits = ((path >>> (60 - consumed - rem)) & ((1L << rem) - 1)).toInt
        val count = 1 << (avail - rem)
        val base = highBits << (avail - rem)
        java.util.Arrays.fill(node, base, base + count, entry)
        done = true
      }
    }
  }
}

object ACT {

  /** Build an ACT over super-covering arrays: `cellIds` sorted and pairwise
    * disjoint (rejected otherwise), `refLists(i)` the references of
    * `cellIds(i)`. The root common prefix is the longest β-aligned prefix
    * shared by all cell paths (and no longer than the shortest key).
    */
  def build(bitsPerLevel: Int, cellIds: Array[Long], refLists: Array[RefList],
            lut: LookupTable): ACT = {
    val act = new ACT(bitsPerLevel)
    if (cellIds.nonEmpty) {
      // Longest common bit prefix across all paths, capped by min key length.
      var minBits = Int.MaxValue
      var common = 60
      val first = CellId.path60(cellIds(0))
      var i = 0
      while (i < cellIds.length) {
        // Sorted disjoint cells have sorted disjoint leaf ranges.
        require(i == 0 || CellId.rangeMax(cellIds(i - 1)) < CellId.rangeMin(cellIds(i)),
          s"cell ids must be sorted and pairwise disjoint: ${cellIds(i - 1)} then ${cellIds(i)}")
        val bits = 2 * CellId.level(cellIds(i))
        if (bits < minBits) minBits = bits
        // Paths are MSB-aligned at bit 59, so the shared prefix length within
        // the 60-bit space is nlz(xor) - 4 (60 when the paths are identical).
        val xor = first ^ CellId.path60(cellIds(i))
        val cp = java.lang.Long.numberOfLeadingZeros(xor) - 4
        if (cp < common) common = cp
        i += 1
      }
      var p = math.max(0, math.min(common, minBits))
      p -= p % bitsPerLevel
      act.prefixLen = p
      act.prefixBits = if (p > 0) (first >>> (60 - p)) << (60 - p) else 0L

      i = 0
      while (i < cellIds.length) {
        act.writeCell(cellIds(i), TaggedEntry.encode(refLists(i), lut))
        i += 1
      }
    }
    act
  }
}
