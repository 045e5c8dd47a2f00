package repro.act

import org.scalatest.funsuite.AnyFunSuite
import repro.JavaSerialization
import repro.core.{ActIndex, Join}
import repro.geo.Polygon
import repro.grid.CellId
import repro.spatial.SpatialData

/** §3.3.1 index training: adapting the accurate index to the expected point
  * distribution must preserve exact results while reducing PIP tests.
  */
class TrainingSpec extends AnyFunSuite {
  private val polys = SpatialData.polygonGrid(4, 14, 0.2, 0.15, seed = 700L)
  private val (xs, ys, leafIds) = SpatialData.pointArrays(20000, taxi = true, seed = 800L)
  private val (_, _, trainIds) = SpatialData.pointArrays(20000, taxi = true, seed = 2009L)

  private def exactJoin(idx: ActIndex) = {
    val counts = new Array[Long](polys.length)
    val st = Join.exactCounts(idx.act, idx.lut, xs, ys, leafIds, polys, counts)
    (counts.toSeq, st)
  }

  test("training preserves exact join results") {
    val base = ActIndex.build(polys, 8, None)
    val (expected, _) = exactJoin(base)
    val trained = ActIndex.build(polys, 8, None)
    val refinements = trained.train(trainIds)
    assert(refinements > 0, "training on skewed points should refine cells")
    val (got, _) = exactJoin(trained)
    assert(got == expected)
  }

  test("training reduces PIP tests on the trained distribution") {
    val base = ActIndex.build(polys, 8, None)
    val (_, stBase) = exactJoin(base)
    val trained = ActIndex.build(polys, 8, None)
    trained.train(trainIds)
    val (_, stTrained) = exactJoin(trained)
    assert(stTrained.pipTests < stBase.pipTests,
      s"trained ${stTrained.pipTests} vs base ${stBase.pipTests}")
  }

  test("training improves the solely-true-hit rate") {
    val base = ActIndex.build(polys, 8, None)
    val (_, stBase) = exactJoin(base)
    val trained = ActIndex.build(polys, 8, None)
    trained.train(trainIds)
    val (_, stTrained) = exactJoin(trained)
    assert(stTrained.sthPercent >= stBase.sthPercent)
  }

  test("more training points refine at least as much") {
    val t1 = ActIndex.build(polys, 8, None)
    val r1 = t1.train(trainIds.take(2000))
    val t2 = ActIndex.build(polys, 8, None)
    val r2 = t2.train(trainIds)
    assert(r2 >= r1)
  }

  test("training grows the index moderately") {
    val base = ActIndex.build(polys, 8, None)
    val sizeBefore = base.sizeBytes
    base.train(trainIds)
    val sizeAfter = base.sizeBytes
    assert(sizeAfter >= sizeBefore)
    assert(sizeAfter < sizeBefore * 20, "training should not explode the index")
  }

  test("training is idempotent once cells are cheap") {
    val idx = ActIndex.build(polys, 8, None)
    idx.train(trainIds)
    // Re-train with the same points: progressively fewer refinements.
    val again = idx.train(trainIds)
    val third = idx.train(trainIds)
    assert(third <= again)
  }

  test("training stops at the memory budget") {
    val idx = ActIndex.build(polys, 8, None)
    val budget = idx.act.sizeBytes // no growth allowed beyond current size
    idx.train(trainIds, maxBytes = budget)
    // At most one refinement, which adds at most one 2 KiB node, can
    // overshoot before the check trips.
    assert(idx.act.sizeBytes <= budget + 2048)
    // And results stay exact.
    val (got, _) = exactJoin(idx)
    val (expected, _) = exactJoin(ActIndex.build(polys, 8, None))
    assert(got == expected)
  }

  test("training leaves the trie and lookup table it replaces unchanged") {
    val idx = ActIndex.build(polys, 8, None)
    val (act, lut) = (idx.act, idx.lut)
    val before = leafIds.map(act.probe)
    val lutBytes = lut.sizeBytes
    assert(idx.train(trainIds) > 0)
    assert(idx.act ne act)
    assert(leafIds.map(act.probe).sameElements(before))
    assert(lut.sizeBytes == lutBytes)
  }

  test("a trained index probes and sizes like a fresh build from its super covering") {
    for (bits <- Seq(2, 4, 8)) {
      val idx = ActIndex.build(polys, bits, None)
      assert(idx.train(trainIds) > 0)
      val fresh = ActIndex.fromSuperCovering(polys, idx.sc, bits)
      assert(idx.act.sizeBytes == fresh.act.sizeBytes, s"bits=$bits")
      assert(idx.lut.sizeBytes == fresh.lut.sizeBytes, s"bits=$bits")
      for (leaf <- leafIds ++ trainIds)
        assert(TaggedEntry.decode(idx.act.probe(leaf), idx.lut) ==
               TaggedEntry.decode(fresh.act.probe(leaf), fresh.lut), s"bits=$bits leaf=$leaf")
    }
  }

  test("a deserialized index has no super covering and refuses to train") {
    val idx = ActIndex.build(polys, 8, None)
    val copy = JavaSerialization.roundTrip(idx)
    val e = intercept[IllegalStateException](copy.train(trainIds))
    assert(e.getMessage.contains("super covering"))
    // The driver-side index still trains.
    assert(idx.train(trainIds) > 0)
  }

  test("training never splits a level-30 cell") {
    // A 20 µm triangle: its covering bottoms out at the finest level.
    val (x0, y0, side) = (1000.0, 1000.0, 2e-5)
    val tiny = Array(Polygon(0, Array(x0, x0 + side, x0), Array(y0, y0, y0 + side)))
    val rnd = new scala.util.Random(31)
    val pts = Array.fill(2000) {
      val (u, v) = (rnd.nextDouble(), rnd.nextDouble())
      if (u + v < 1) (x0 + u * side, y0 + v * side) else (x0 + (1 - u) * side, y0 + (1 - v) * side)
    }
    val (px, py) = (pts.map(_._1), pts.map(_._2))
    val leaves = pts.map { case (x, y) => CellId.fromPoint(x, y) }
    val idx = ActIndex.build(tiny, 8, None)
    assert(leaves.exists { l =>
      val c = idx.sc.containing(l)
      c != 0L && CellId.level(c) == CellId.MaxLevel && idx.sc.cells.get(c).isExpensive
    }, "test setup: training leaves must hit expensive level-30 cells")
    assert(idx.train(leaves) == 0)
    val got = new Array[Long](1)
    val expected = new Array[Long](1)
    Join.exactCounts(idx.act, idx.lut, px, py, leaves, tiny, got)
    Join.naiveCounts(px, py, tiny, expected)
    assert(got.toSeq == expected.toSeq)
    assert(expected(0) > 0)
  }
}
