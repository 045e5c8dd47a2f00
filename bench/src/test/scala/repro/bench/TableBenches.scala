package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Benchmark suites, one per paper table (run via `sbt "bench/test"`).
  *
  * Each suite regenerates its table (printed to stdout; EXPERIMENTS.md
  * records a run) and asserts the paper's qualitative *shape* — which
  * configuration wins, how metrics move with precision/training — without
  * pinning absolute numbers (our substrate is a JVM, not the authors' C++
  * testbed; see EXPERIMENTS.md for the paper-vs-measured diff).
  */
class Table1Bench extends AnyFunSuite {
  test("Table 1: super covering metrics") {
    val rows = TableRunners.table1()
    assert(rows.length == 10) // header + 3 datasets x 3 precisions
    def cells(dataset: String, prec: String): Double =
      rows.find(r => r(0) == dataset && r(1) == prec).get(2).toDouble
    for (d <- TableRunners.Datasets) {
      // Paper: finer precision => more cells (Table 1, each dataset).
      assert(cells(d, "4") > cells(d, "15"), s"$d: 4m should have more cells than 15m")
      assert(cells(d, "15") >= cells(d, "60") * 0.9, s"$d: 15m should not have fewer cells than 60m")
    }
    // Paper: census has the largest covering at 4m (39.8M vs 20.9M/14.0M).
    assert(cells("census", "4") > cells("neighborhoods", "4"))
  }
}

class Table2Bench extends AnyFunSuite {
  test("Table 2: data structure size and build time at 4m") {
    val rows = TableRunners.table2()
    assert(rows.length == 16) // header + 3 datasets x 5 structures
    def size(dataset: String, idx: String): Double =
      rows.find(r => r(0) == dataset && r(1) == idx).get(2).toDouble
    for (d <- TableRunners.Datasets) {
      // All structures materialize; sizes are positive and same magnitude:
      // ACT1/ACT2 stay within ~2x of the raw pair vector (paper Table 2
      // shows 0.6x-1.1x on NYC data).
      for (s <- Seq("ACT1", "ACT2", "ACT4", "GBT", "LB"))
        assert(size(d, s) > 0.0, s"$d/$s has zero size")
      assert(size(d, "ACT1") < size(d, "LB") * 2.5, s"$d: ACT1 size out of range")
      assert(size(d, "ACT2") < size(d, "LB") * 2.5, s"$d: ACT2 size out of range")
    }
    // Paper (census column): when cells are small relative to a node's
    // span, the highest fanout has the sparsest nodes and the largest
    // relative footprint — census's ACT4/ACT1 ratio tops the others'.
    def ratio(d: String): Double = size(d, "ACT4") / size(d, "ACT1")
    assert(ratio("census") > ratio("boroughs"),
      "census (smallest cells) should blow up ACT4 the most")
  }
}

class Table3Bench extends AnyFunSuite {
  test("Table 3: speedups of coarser over finer polygon datasets") {
    val rows = TableRunners.table3()
    assert(rows.length == 6)
    def ratio(idx: String, col: Int): Double =
      rows.find(_.head == idx).get(col).dropRight(1).toDouble
    for (idx <- Seq("ACT1", "ACT2", "ACT4", "GBT", "LB")) {
      // Paper Table 3: every structure is faster on coarser polygon sets.
      assert(ratio(idx, 1) > 1.0, s"$idx b/n should exceed 1x")
      assert(ratio(idx, 2) > 1.0, s"$idx b/c should exceed 1x")
    }
    // Paper's headline: ACT gains more from large cells than GBT/LB —
    // ACT1's boroughs-over-census speedup (8.63x) tops GBT's (3.51x).
    assert(ratio("ACT1", 2) > ratio("LB", 2),
      "ACT should benefit more from coarse datasets than binary search")
  }
}

class Table4Bench extends AnyFunSuite {
  test("Table 4: ACT4 traversal depth distribution") {
    val rows = TableRunners.table4()
    assert(rows.length == 7) // header + 2 point kinds x 3 datasets
    def dist(points: String, dataset: String): Seq[Double] =
      rows.find(r => r(0) == points && r(1) == dataset).get.drop(2).map(_.dropRight(1).toDouble)
    for (p <- Seq("uniform", "taxi"); d <- TableRunners.Datasets) {
      val s = dist(p, d).sum
      assert(s > 95.0 && s < 105.0, s"$p/$d distribution sums to $s%")
    }
    // Paper: boroughs traversals end higher in the tree than census ones.
    def meanDepth(p: String, d: String): Double =
      dist(p, d).zipWithIndex.map { case (v, i) => v * (i + 1) }.sum / 100.0
    assert(meanDepth("taxi", "boroughs") < meanDepth("taxi", "census"))
    // Paper: uniform points skew towards the root (large cells hit more).
    assert(meanDepth("uniform", "boroughs") <= meanDepth("uniform", "census"))
  }
}

class Table5Bench extends AnyFunSuite {
  test("Table 5: per-point probe cost proxies") {
    val rows = TableRunners.table5()
    assert(rows.length == 11) // header + 2 point kinds x 5 structures
    def acc(points: String, idx: String): Double =
      rows.find(r => r(0) == points && r(1) == idx).get(3).toDouble
    def ns(points: String, idx: String): Double =
      rows.find(r => r(0) == points && r(1) == idx).get(2).toDouble
    for (p <- Seq("uniform", "taxi")) {
      // Paper Table 5 cost ordering: ACT4 < ACT2 < ACT1 and ACT << GBT < LB
      // (in cycles; node/step accesses are the JVM-visible driver of that).
      assert(acc(p, "ACT4") < acc(p, "ACT2"), s"$p: ACT4 accesses < ACT2")
      assert(acc(p, "ACT2") < acc(p, "ACT1"), s"$p: ACT2 accesses < ACT1")
      assert(acc(p, "ACT4") < acc(p, "GBT"), s"$p: ACT4 accesses < GBT")
      assert(acc(p, "GBT") < acc(p, "LB"), s"$p: GBT accesses < LB")
      assert(ns(p, "ACT4") < ns(p, "LB"), s"$p: ACT4 should be faster than LB")
    }
    // Paper: skewed taxi data probes are cheaper than uniform for ACT4.
    assert(ns("taxi", "ACT4") <= ns("uniform", "ACT4") * 1.25)
  }
}

class Table6Bench extends AnyFunSuite {
  test("Table 6: training speedups of the accurate join") {
    val rows = TableRunners.table6()
    assert(rows.length == 4) // header + 3 training sizes
    def speedup(row: Int, col: Int): Double = rows(row)(col).dropRight(1).toDouble
    // Paper Table 6: trained configurations are at least as fast as
    // untrained. Census is the exception in our setting (documented in
    // EXPERIMENTS.md): its 12-edge PIP tests are too cheap on a JVM to pay
    // for a deeper tree, so its "speedup" hovers noisily around 1x — we
    // only require it not to collapse.
    for (col <- 1 to 2; row <- 1 to 3)
      assert(speedup(row, col) > 0.9, s"training slowed down (row $row col $col)")
    for (row <- 1 to 3)
      assert(speedup(row, 3) > 0.5, s"census training collapsed (row $row)")
    for (col <- 1 to 2)
      assert(speedup(3, col) >= speedup(1, col) * 0.85,
        s"more training points should not hurt (col $col)")
    // Boroughs and neighborhoods gain clearly (paper: 1.44x / 2.18x at 1M).
    assert(speedup(3, 1) > 1.1, "boroughs should gain clearly from training")
    assert(speedup(3, 2) > 1.1, "neighborhoods should gain clearly from training")
  }
}

class Table7Bench extends AnyFunSuite {
  test("Table 7: solely-true-hits improvement from training") {
    val rows = TableRunners.table7()
    val sth = rows(1).drop(1).map { s =>
      val parts = s.split("->").map(_.trim.toDouble)
      (parts(0), parts(1))
    }
    for (((before, after), d) <- sth.zip(TableRunners.Datasets)) {
      // Paper Table 7: STH clearly above 70% even untrained; training
      // improves (or preserves, for boroughs' 99.9%) it.
      assert(before > 60.0, s"$d untrained STH $before% too low")
      assert(after >= before - 0.2, s"$d STH degraded: $before -> $after")
    }
    // PIP-test reduction backs the STH numbers.
    val pips = rows(2).drop(1).map { s =>
      val parts = s.split("->").map(_.trim.dropRight(1).toLong)
      (parts(0), parts(1))
    }
    for (((before, after), d) <- pips.zip(TableRunners.Datasets))
      assert(after <= before, s"$d PIP tests grew: $before -> $after")
  }
}
