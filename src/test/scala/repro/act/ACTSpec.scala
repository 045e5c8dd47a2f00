package repro.act

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ActIndex, PolygonRef, RefList, SuperCovering}
import repro.grid.CellId
import repro.index.SortedCellVector
import repro.spatial.SpatialData

class ACTSpec extends AnyFunSuite {
  private val rnd = new scala.util.Random(5)

  private def randomSuperCovering(nPolys: Int, cellsPerPoly: Int): SuperCovering = {
    val covs = (0 until nPolys).map { pid =>
      pid -> Vector.fill(cellsPerPoly) {
        val lvl = 2 + rnd.nextInt(10)
        CellId.fromIJ(rnd.nextLong(1L << lvl), rnd.nextLong(1L << lvl), lvl)
      }.distinct
    }
    val ints = (0 until nPolys).map { pid =>
      pid -> Vector.fill(cellsPerPoly / 2) {
        val lvl = 4 + rnd.nextInt(10)
        CellId.fromIJ(rnd.nextLong(1L << lvl), rnd.nextLong(1L << lvl), lvl)
      }.distinct
    }
    SuperCovering.build(covs, ints)
  }

  for (bits <- Seq(2, 4, 8)) {
    test(s"ACT$bits probe agrees with sorted-vector reference on random coverings") {
      val sc = randomSuperCovering(8, 12)
      val (ids, refs) = sc.toSortedArrays
      val lutA = new LookupTable
      val lutL = new LookupTable
      val act = ACT.build(bits, ids, refs, lutA)
      val lb = SortedCellVector(ids, refs.map(r => TaggedEntry.encode(r, lutL)))
      for (_ <- 1 to 5000) {
        val leaf = CellId.fromIJ(rnd.nextLong(1L << 30), rnd.nextLong(1L << 30), 30)
        val ea = act.probe(leaf)
        val el = lb.probe(leaf)
        assert(TaggedEntry.decode(ea, lutA) == TaggedEntry.decode(el, lutL),
          s"bits=$bits leaf=$leaf")
      }
    }
  }

  for (bits <- Seq(2, 4, 8)) {
    test(s"ACT$bits: splitting a stored cell grows the build by splitBytes") {
      val sc = randomSuperCovering(8, 12)
      val (ids, refs) = sc.toSortedArrays
      val act = ACT.build(bits, ids, refs, new LookupTable)
      var grown = 0
      var same = 0
      for (i <- ids.indices if CellId.level(ids(i)) < CellId.MaxLevel) {
        // The children replace the cell in place: their ids lie in its range.
        val children = Array.tabulate(4)(CellId.child(ids(i), _))
        val split = ACT.build(bits,
          ids.take(i) ++ children ++ ids.drop(i + 1),
          refs.take(i) ++ Array.fill(4)(refs(i)) ++ refs.drop(i + 1), new LookupTable)
        if (split.prefixLen == act.prefixLen) {
          val growth = act.splitBytes(ids(i))
          assert(split.sizeBytes == act.sizeBytes + growth, s"bits=$bits cell=${ids(i)}")
          if (growth > 0) grown += 1 else same += 1
        }
      }
      assert(grown > 0 && (bits == 2 || same > 0), s"grown=$grown same=$same")
    }
  }

  test("ACT.build rejects unsorted or overlapping cell ids") {
    val a = CellId.fromIJ(0, 0, 4)
    val b = CellId.fromIJ(3, 3, 4)
    assert(a < b)
    val r = RefList.single(PolygonRef(1, interior = true))
    def build(ids: Long*) = ACT.build(8, ids.toArray, Array.fill(ids.length)(r), new LookupTable)
    build(a, b)
    intercept[IllegalArgumentException](build(b, a))
    intercept[IllegalArgumentException](build(a, a))
    // A descendant overlaps its ancestor whichever side of it it sorts on.
    val first = CellId.child(a, 0)
    val last = CellId.child(a, 3)
    assert(first < a && a < last)
    intercept[IllegalArgumentException](build(first, a))
    intercept[IllegalArgumentException](build(a, last))
  }

  test("ACT rejects invalid fanouts") {
    intercept[IllegalArgumentException](new ACT(3))
    intercept[IllegalArgumentException](new ACT(16))
  }

  test("probing an empty ACT misses") {
    val act = ACT.build(8, Array.empty, Array.empty, new LookupTable)
    assert(act.probe(CellId.fromPoint(100, 100)) == TaggedEntry.NoHit)
  }

  test("single-cell ACT hits inside and misses outside") {
    val cell = CellId.fromIJ(2, 3, 4)
    val refs = RefList.single(PolygonRef(9, interior = true))
    val act = ACT.build(8, Array(cell), Array(refs), new LookupTable)
    val b = CellId.bounds(cell)
    for (_ <- 1 to 200) {
      val inX = b.xMin + rnd.nextDouble() * b.width
      val inY = b.yMin + rnd.nextDouble() * b.height
      val e = act.probe(CellId.fromPoint(inX, inY))
      assert(TaggedEntry.tag(e) == TaggedEntry.TagInline && TaggedEntry.inlineRef1(e) == refs.refs(0))
    }
    // Points in a different quadrant of the world must miss.
    val e2 = act.probe(CellId.fromPoint(b.xMax + 600, b.yMax + 600))
    assert(e2 == TaggedEntry.NoHit)
  }

  test("key extension: a cell whose key length is not a multiple of the fanout still matches everywhere") {
    for (bits <- Seq(4, 8)) {
      // level 3 -> 6 key bits; not a multiple of 4 or 8.
      val cell = CellId.fromIJ(5, 2, 3)
      val refs = RefList.single(PolygonRef(3, interior = false))
      val act = ACT.build(bits, Array(cell), Array(refs), new LookupTable)
      val b = CellId.bounds(cell)
      for (_ <- 1 to 500) {
        val x = b.xMin + rnd.nextDouble() * b.width
        val y = b.yMin + rnd.nextDouble() * b.height
        val e = act.probe(CellId.fromPoint(x, y))
        assert(TaggedEntry.inlineRef1(e) == refs.refs(0), s"bits=$bits point=($x,$y)")
      }
    }
  }

  test("larger cells are found at smaller depths (adaptive height)") {
    val bigCell = CellId.fromIJ(0, 0, 4)     // 8 key bits -> depth 1 at fanout 256
    val smallCell = CellId.fromIJ((1L << 16) - 1, (1L << 16) - 1, 16) // 32 bits -> depth 4
    val refs = RefList.single(PolygonRef(1, interior = true))
    val act = ACT.build(8, Array(bigCell, smallCell).sorted, Array(refs, refs), new LookupTable)
    val bBig = CellId.bounds(bigCell)
    val dBig = act.accesses(CellId.fromPoint(bBig.centerX, bBig.centerY))
    val bSmall = CellId.bounds(smallCell)
    val dSmall = act.accesses(CellId.fromPoint(bSmall.centerX, bSmall.centerY))
    assert(dBig < dSmall, s"big depth $dBig should be < small depth $dSmall")
  }

  test("higher fanout gives lower depth for the same covering") {
    val sc = randomSuperCovering(6, 10)
    val (ids, refs) = sc.toSortedArrays
    val a1 = ACT.build(2, ids, refs, new LookupTable)
    val a4 = ACT.build(8, ids, refs, new LookupTable)
    val leaves = Array.fill(2000)(CellId.fromIJ(rnd.nextLong(1L << 30), rnd.nextLong(1L << 30), 30))
    def meanAccesses(act: ACT): Double = leaves.map(act.accesses).sum.toDouble / leaves.length
    assert(meanAccesses(a4) < meanAccesses(a1))
  }

  test("accesses counts the nodes a probe visits") {
    val cell = CellId.fromIJ(0, 0, 4)     // 8 key bits: one node at fanout 256
    val act = ACT.build(8, Array(cell),
      Array(RefList.single(PolygonRef(1, interior = true))), new LookupTable)
    val b = CellId.bounds(cell)
    assert(act.accesses(CellId.fromPoint(b.centerX, b.centerY)) == 1)
  }

  test("root common prefix is used when all cells share one") {
    // All cells in one level-4 cell: 8 bits of common prefix.
    val base = CellId.fromIJ(3, 3, 4)
    val cells = (0 to 3).map(k => CellId.child(CellId.child(base, k), 1)).sorted.toArray
    val refs = cells.map(_ => RefList.single(PolygonRef(1, interior = true)))
    val act = ACT.build(8, cells, refs, new LookupTable)
    // A probe far away must be rejected by the prefix check without node access.
    val far = CellId.fromPoint(10, 10)
    assert(act.probe(far) == TaggedEntry.NoHit)
    assert(act.accesses(far) == 0, "prefix check should shortcut the miss")
    // And probes inside still work.
    val b = CellId.bounds(cells(0))
    assert(act.probe(CellId.fromPoint(b.centerX, b.centerY)) != TaggedEntry.NoHit)
  }

  test("sizeBytes grows with node count") {
    val sc = randomSuperCovering(6, 10)
    val (ids, refs) = sc.toSortedArrays
    val act = ACT.build(8, ids, refs, new LookupTable)
    assert(act.sizeBytes == act.nodeCount.toLong * 256 * 8)
  }

  test("ACT over a real polygon set resolves interior points to true hits") {
    val polys = SpatialData.polygonGrid(3, 12, 0.15, 0.05, seed = 200L)
    val idx = ActIndex.build(polys, 8, precisionMeters = Some(15.0))
    var trueHits = 0
    for (_ <- 1 to 2000) {
      val (x, y) = SpatialData.uniformPoint(rnd.nextLong(1 << 20), 9L)
      val e = idx.act.probe(CellId.fromPoint(x, y))
      if (TaggedEntry.tag(e) == TaggedEntry.TagInline) {
        val r = TaggedEntry.inlineRef1(e)
        if (PolygonRef.isInterior(r)) {
          trueHits += 1
          // A true hit must really be inside the polygon.
          assert(polys(PolygonRef.polygonId(r)).contains(x, y),
            s"false true-hit at ($x,$y)")
        }
      }
    }
    assert(trueHits > 100, s"expected many true hits, got $trueHits")
  }
}
