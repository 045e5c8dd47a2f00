package repro.perfbench

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{ActIndex, SuperCovering}
import repro.geo.Polygon
import repro.grid.{CellId, Covering}
import repro.spark.SpatialJoin
import repro.spatial.SpatialData
import scala.collection.mutable
import scala.collection.parallel.CollectionConverters._

/** Metric names, units and better-is directions; `perfbench/run.py` checks
  * that they match BENCHMARK.json.
  */
object MetricDefs {
  final case class Def(name: String, unit: String, better: String)

  val endToEnd: Seq[Def] = Seq(
    Def("setup_s", "s", "lower"),
    Def("join_mpts", "Mpts/s", "higher"),
    Def("index_bytes", "bytes", "lower"),
    Def("correct_share", "share", "higher"),
  )

  val perLayer: Seq[Def] = Seq(
    Def("grid.covering_s", "s", "lower"),
    Def("grid.covering_cells", "count", "lower"),
    Def("core.merge_s", "s", "lower"),
    Def("core.cells", "count", "lower"),
    Def("core.refine_s", "s", "lower"),
    Def("act.build_s", "s", "lower"),
    Def("act.bytes", "bytes", "lower"),
    Def("act.nodes", "count", "lower"),
    Def("act.lut_bytes", "bytes", "lower"),
    Def("core.train_s", "s", "lower"),
    Def("core.train_refinements", "count", "higher"),
    Def("core.build_unaccounted_s", "s", "lower"),
    Def("spark.collect_s", "s", "lower"),
    Def("spark.broadcast_s", "s", "lower"),
    Def("spark.scan_mpts", "Mpts/s", "higher"),
    Def("spark.decode_mpts", "Mpts/s", "higher"),
    Def("grid.from_point_ns", "ns", "lower"),
    Def("act.probe_ns", "ns", "lower"),
    Def("act.probe_mpts_nt", "Mpts/s", "higher"),
    Def("core.kernel_mpts_1t", "Mpts/s", "higher"),
    Def("core.kernel_mpts_nt", "Mpts/s", "higher"),
    Def("geo.pip_ns", "ns", "lower"),
    Def("core.true_hits_per_pt", "1/pt", "higher"),
    Def("core.candidates_per_pt", "1/pt", "lower"),
    Def("core.pip_tests_per_pt", "1/pt", "lower"),
    Def("core.sth_pct", "%", "higher"),
    Def("spark.probes", "count", "higher"),
    Def("spark.true_hits", "count", "higher"),
    Def("spark.candidates", "count", "lower"),
    Def("spark.pip_tests", "count", "lower"),
    Def("spark.pairs", "count", "higher"),
    Def("trace.setup_s", "s", "lower"),
    Def("trace.overhead_pct", "%", "lower"),
  )
}

/** Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
  * plus `--nproc`, `--out` (results directory) and `--commit`, which
  * `perfbench/run.py` fills in.
  */
final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                      nproc: Int, out: File, commit: String)

object Opts {
  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String): String = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(get("workload"), get("seed").toLong, get("seconds").toDouble, get("trace") == "1",
      m.get("nproc").map(_.toInt).getOrElse(Runtime.getRuntime.availableProcessors),
      new File(m.getOrElse("out", "perfbench/out")), m.getOrElse("commit", "unknown"))
  }
}

/** Everything a run shares: the session, the generated inputs and the
  * reference answer. Inputs are made before anything is timed.
  */
final class Ctx(val spark: SparkSession, val w: Workload, val o: Opts) {
  val n: Int = w.points
  val polys: Array[Polygon] = SpatialData.dataset(w.dataset)
  val polysDf: DataFrame = SpatialData.polygonsDf(spark, polys)
  val (xs, ys, leafIds) = Ctx.pointArrays(n, w.taxi, o.seed, o.nproc)
  Timing.log("point arrays generated")
  val points: DataFrame = SpatialData.pointsDf(spark, n, w.taxi, o.seed).cache()
  require(points.count() == n, "cached points lost rows")
  Timing.log("points DataFrame cached")
  val ref: Gate.Reference = Gate.reference(xs, ys, polys, o.nproc)
  val bound: Option[Double] = if (w.exact) None else w.precision.map(Gate.approxBound)
  val trainIds: Array[Long] =
    if (w.trainPoints == 0) Array.emptyLongArray
    else SpatialData.pointArrays(w.trainPoints, taxi = true, Workload.trainSeed(o.seed))._3

  private def freeStorage(): Long = spark.sparkContext.getExecutorMemoryStatus.values.map(_._2).sum
  private val storageBaseline = freeStorage()

  /** Wait until the previous join's broadcast has been dropped: collect
    * garbage so Spark's ContextCleaner sees the unreachable broadcast and
    * removes its blocks, until free storage is back at the level it had
    * with only the points cached.
    */
  def awaitBroadcastCleanup(): Double = {
    val t0 = Timing.now()
    var free = freeStorage()
    while (free < storageBaseline - (1L << 20) && Timing.seconds(t0) < 20) {
      Timing.settleHeap()
      Thread.sleep(100)
      free = freeStorage()
    }
    Timing.settleHeap()
    Timing.seconds(t0)
  }
}

object Ctx {
  /** `SpatialData.pointArrays`, generated on `threads` threads. */
  def pointArrays(n: Int, taxi: Boolean, seed: Long, threads: Int): (Array[Double], Array[Double], Array[Long]) = {
    val xs = new Array[Double](n)
    val ys = new Array[Double](n)
    val ids = new Array[Long](n)
    Timing.parallel(threads) { t =>
      var i = (n.toLong * t / threads).toInt
      val end = (n.toLong * (t + 1) / threads).toInt
      while (i < end) {
        val (x, y) = if (taxi) SpatialData.taxiPoint(i, seed) else SpatialData.uniformPoint(i, seed)
        xs(i) = x; ys(i) = y; ids(i) = CellId.fromPoint(x, y)
        i += 1
      }
    }
    (xs, ys, ids)
  }
}

/** One set-up: polygons DataFrame in, probe-ready index out. */
final case class SetupSample(collectS: Double, buildS: Double, trainS: Double) {
  def totalS: Double = collectS + buildS + trainS
}

/** What a run reports: metric values, the gate's tally, and notes for the
  * results file.
  */
final class Outcome {
  val metrics = mutable.LinkedHashMap.empty[String, Double]
  val notes = mutable.LinkedHashMap.empty[String, String]
  var attempted = 0L
  var failed = 0L
  var countsAgree = true
  def correct: Boolean = failed == 0 && countsAgree && attempted > 0
}

object Main {

  def main(args: Array[String]): Unit = {
    val o = Opts.parse(args)
    val w = Workload.byName(o.workload)
    o.out.mkdirs()
    val spark = SparkSession.builder
      .master(s"local[${o.nproc}]")
      .appName(s"perfbench-${w.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.ui.showConsoleProgress", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(o.out, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(o.out, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val status =
      try { run(spark, w, o); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
      finally spark.stop()
    System.exit(status)
  }

  private def run(spark: SparkSession, w: Workload, o: Opts): Unit = {
    val t0 = Timing.now()
    Timing.log(s"${w.name}, seed ${o.seed}, trace ${o.trace}")
    val ctx = new Ctx(spark, w, o)
    Timing.log(s"inputs ready (${ctx.ref.pairs.length} reference pairs)")
    val tracer = new Tracer(s"${w.name}-seed${o.seed}")
    val out = if (o.trace) traced(ctx, tracer) else endToEnd(ctx)
    val defs = if (o.trace) MetricDefs.perLayer else MetricDefs.endToEnd
    require(defs.map(_.name).toSet == out.metrics.keySet,
      s"metrics produced do not match the definitions: ${out.metrics.keySet}")

    val env = environment(ctx)
    val metricsJson = defs.map { d =>
      d.name -> Json.obj(Seq("value" -> number(out.metrics(d.name)), "unit" -> Json.str(d.unit)))
    }
    val record = Json.obj(Seq(
      "env" -> Json.obj(env),
      "correct" -> out.correct.toString, "attempted" -> out.attempted.toString,
      "failed" -> out.failed.toString,
      "metrics" -> Json.obj(defs.map { d =>
        d.name -> Json.obj(Seq("value" -> number(out.metrics(d.name)),
          "unit" -> Json.str(d.unit), "better" -> Json.str(d.better)))
      }),
      "notes" -> Json.obj(out.notes.toSeq),
      "wall_s" -> Json.num(Timing.seconds(t0))))
    val stem = s"${w.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}"
    write(new File(o.out, s"results/$stem.json"), record + "\n")
    if (o.trace) write(new File(o.out, s"traces/$stem.json"), tracer.toJson)

    println(record)
    println(Json.obj(Seq(
      "correct" -> out.correct.toString, "attempted" -> out.attempted.toString,
      "failed" -> out.failed.toString, "metrics" -> Json.obj(metricsJson))))
  }

  /** Integral values (sizes, counts) print as integers, the rest with every
    * digit the double carries.
    */
  private def number(v: Double): String =
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else Json.num(v)

  private def write(f: File, s: String): Unit = {
    f.getParentFile.mkdirs()
    Files.write(f.toPath, s.getBytes(StandardCharsets.UTF_8))
  }

  private def environment(ctx: Ctx): Seq[(String, String)] = {
    val w = ctx.w
    val sc = ctx.spark.sparkContext
    Seq(
      "workload" -> Json.str(w.name), "dataset" -> Json.str(w.dataset),
      "polygons" -> ctx.polys.length.toString,
      "mode" -> Json.str(if (w.exact) "exact" else "approximate"),
      "precision_m" -> w.precision.map(Json.num).getOrElse("null"),
      "points" -> ctx.n.toString, "point_distribution" -> Json.str(w.pointDistribution),
      "seed" -> ctx.o.seed.toString,
      "train_points" -> w.trainPoints.toString,
      "train_seed" -> (if (w.trainPoints > 0) Workload.trainSeed(ctx.o.seed).toString else "null"),
      "index" -> Json.str(s"ACT fanout ${1 << Workload.BitsPerLevel} (bitsPerLevel ${Workload.BitsPerLevel})"),
      "nproc" -> ctx.o.nproc.toString,
      "heap_max_bytes" -> Runtime.getRuntime.maxMemory.toString,
      "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}"),
      "scala" -> Json.str(scala.util.Properties.versionNumberString),
      "spark" -> Json.str(ctx.spark.version),
      "master" -> Json.str(sc.master),
      "partitions" -> ctx.points.rdd.getNumPartitions.toString,
      "serializer" -> Json.str(Adapter.serializerName),
      "run_seconds" -> Json.num(ctx.o.seconds),
      "trace" -> (if (ctx.o.trace) "1" else "0"),
      "git_commit" -> Json.str(ctx.o.commit),
    )
  }

  // ---------------------------------------------------------------------
  // Set-up: the public build path, as `SpatialJoin.join` runs it.
  // ---------------------------------------------------------------------

  def setupOnce(ctx: Ctx): (ActIndex, SetupSample) = {
    val w = ctx.w
    val t0 = Timing.now()
    val polys = SpatialJoin.collectPolygons(ctx.polysDf)
    val t1 = Timing.now()
    val idx = ActIndex.build(polys, Workload.BitsPerLevel, w.precision)
    val t2 = Timing.now()
    if (w.trainPoints > 0) idx.train(ctx.trainIds, maxBytes = idx.act.sizeBytes + Workload.TrainBudgetBytes)
    val t3 = Timing.now()
    (idx, SetupSample((t1 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2) / 1e9))
  }

  /** Set-ups repeat at least 4 times and, when they are short, until this
    * much time has passed (at most 16 times).
    */
  private val SetupBudgetS = 5.0

  /** The timed passes rotate over the last set-ups' indexes while their
    * ACTs together stay within this size (census keeps one, neighborhoods
    * eight). Each built index lands at its own heap addresses, and how
    * costly the probe's shared counter writes are depends on what shares
    * their cache line; one index instance can be ~30 % slower than another
    * for the whole life of the JVM. Rotating makes a run's median cover
    * several such draws instead of one.
    */
  private val RotateMaxBytes = 256L << 20
  private val RotateMax = 8

  /** Repeated set-ups, each from a settled heap. The first warms the JIT
    * and is not a sample: it is always the slowest (census ~5.5 s against
    * ~4 s) and would pull the median up.
    * Sub-second set-ups (neighborhoods) get more repetitions. Returns the
    * indexes to rotate over, the last built last.
    */
  def setupRepeated(ctx: Ctx, log: String): (Seq[ActIndex], Seq[SetupSample]) = {
    val kept = mutable.ArrayBuffer.empty[ActIndex]
    val samples = mutable.ArrayBuffer.empty[SetupSample]
    Timing.repeat(minReps = 4, maxReps = 16, budgetS = SetupBudgetS) { k =>
      Timing.settleHeap()
      val (i, s) = setupOnce(ctx)
      kept += i
      if (k > 0) samples += s
      while (kept.length > 1 && (kept.length > RotateMax || kept.map(_.act.sizeBytes).sum > RotateMaxBytes))
        kept.remove(0)
    }
    Timing.log(s"$log: ${samples.map(s => f"${s.totalS}%.3f").mkString(" ")} s; rotating over ${kept.length} indexes")
    (kept.toSeq, samples.toSeq)
  }

  // ---------------------------------------------------------------------
  // End-to-end run (tracing off).
  // ---------------------------------------------------------------------

  private val WarmUpMaxBytes = 64L << 20

  def endToEnd(ctx: Ctx): Outcome = {
    val w = ctx.w
    val out = new Outcome
    val (indexes, setups) = setupRepeated(ctx, "setup")
    val idx = indexes.last
    out.metrics("setup_s") = Timing.median(setups.map(_.totalS))
    out.notes("setup_samples_s") = setups.map(s => Json.num(s.totalS)).mkString("[", ", ", "]")
    out.notes("setup_reps") = setups.length.toString

    out.metrics("index_bytes") = Adapter.serializedBytes(idx).toDouble
    Timing.log("index serialized")

    // Warm-up, untimed: the single-threaded kernel once, then the operator
    // on one task, then on all tasks. The operator's throughput depends on
    // how the JIT compiles `ACT.probe`, whose shared counter fields every
    // task writes; compiled from a contended first profile it can come out
    // up to ~40 % slower for the whole life of the JVM. Warming the probe
    // path uncontended first makes that choice the same from run to run;
    // the timed passes still run all tasks on one shared index per pass.
    // An index too large to broadcast cheaply (census) is replaced in the
    // operator warm-up by one over a sixteenth of the polygons; measuring
    // index_bytes has already run the full index through the serializer.
    Adapter.kernel(idx, w.exact, ctx.xs, ctx.ys, ctx.leafIds)
    val warm =
      if (out.metrics("index_bytes") < WarmUpMaxBytes) idx
      else ActIndex.build(ctx.polys.take(ctx.polys.length / 16), Workload.BitsPerLevel, w.precision)
    for (points <- Seq(ctx.points.coalesce(1), ctx.points))
      Gate.consume(SpatialJoin.joinWithIndex(points, warm, w.exact, None), ctx.n, ctx.polys.length)
    Timing.log("warm-up pass done")

    val passes = mutable.ArrayBuffer.empty[Double]
    val waits = mutable.ArrayBuffer.empty[Double]
    var measured = 0.0
    var k = 0
    // Passes go on until `--seconds` are timed, less half a pass: one more
    // pass would overshoot by more than it falls short. Census, with passes
    // of 11-15 s, makes one.
    while (k == 0 || measured + 0.5 * measured / k < ctx.o.seconds) {
      val pIdx = indexes(k % indexes.length)
      k += 1
      waits += ctx.awaitBroadcastCleanup()
      out.attempted += ctx.n
      val t0 = Timing.now()
      try {
        val rows = Gate.consume(SpatialJoin.joinWithIndex(ctx.points, pIdx, w.exact, None), ctx.n, ctx.polys.length)
        val s = Timing.seconds(t0)
        passes += s
        measured += s
        out.failed += Gate.failedPoints(Gate.sorted(rows), ctx.ref, ctx.bound)
      } catch {
        case e: Exception =>
          e.printStackTrace()
          measured += Timing.seconds(t0)
          out.failed += ctx.n
      }
    }
    out.metrics("join_mpts") = if (passes.isEmpty) 0.0 else ctx.n / Timing.median(passes.toSeq) / 1e6
    out.metrics("correct_share") = 1.0 - out.failed.toDouble / out.attempted
    out.notes("pass_s") = passes.map(Json.num).mkString("[", ", ", "]")
    out.notes("pass_drift_pct") =
      if (passes.length < 2) "null" else Json.num(100.0 * (passes.last - passes.head) / passes.head)
    out.notes("cleanup_wait_s") = waits.map(Json.num).mkString("[", ", ", "]")
    out.notes("rotated_indexes") = indexes.length.toString
    Timing.log(s"join passes: ${passes.map(p => f"$p%.3f").mkString(" ")} s; cleanup waits: ${waits.map(p => f"$p%.2f").mkString(" ")} s")
    out
  }

  // ---------------------------------------------------------------------
  // Traced run: one span per call into a layer, timed from outside.
  // ---------------------------------------------------------------------

  def traced(ctx: Ctx, tr: Tracer): Outcome = {
    val w = ctx.w
    val out = new Outcome
    val m = out.metrics
    tr.span("run") {
      // Untraced and traced set-ups alternate, so neither side runs on a
      // warmer JIT. The untraced ones give the tracing overhead and the whole
      // `ActIndex.build` time that the traced phases must add up to.
      val plain = mutable.ArrayBuffer.empty[SetupSample]
      var idx: ActIndex = null
      var shape = Map.empty[String, Double]
      def untracedSetup(): Unit = { Timing.settleHeap(); plain += setupOnce(ctx)._2 }
      def oneTracedSetup(): Unit = {
        idx = null
        Timing.settleHeap()
        val (i, s) = tracedSetup(ctx, tr)
        idx = i
        shape = s
      }
      Timing.repeat(minReps = 3, maxReps = 15, budgetS = SetupBudgetS) { k =>
        if (k % 2 == 0) { untracedSetup(); oneTracedSetup() } else { oneTracedSetup(); untracedSetup() }
      }
      val plainSetup = Timing.median(plain.map(_.totalS).toSeq)
      Timing.log(s"setups, untraced: ${plain.map(s => f"${s.totalS}%.3f").mkString(" ")} s; " +
        s"traced: ${tr.durations("setup").map(d => f"$d%.3f").mkString(" ")} s")

      m("grid.covering_s") = tr.median("grid.covering")
      m("grid.covering_cells") = shape("grid.covering_cells")
      m("core.merge_s") = tr.median("core.merge")
      m("core.cells") = shape("core.cells")
      m("core.refine_s") = tr.median("core.refine")
      m("act.build_s") = tr.median("act.build")
      m("act.bytes") = shape("act.bytes")
      m("act.nodes") = shape("act.nodes")
      m("act.lut_bytes") = shape("act.lut_bytes")
      m("core.train_s") = tr.median("core.train")
      m("core.train_refinements") = shape("core.train_refinements")
      m("core.build_unaccounted_s") = Timing.median(plain.map(_.buildS).toSeq) -
        (m("grid.covering_s") + m("core.merge_s") + m("core.refine_s") + m("act.build_s"))
      m("spark.collect_s") = tr.median("spark.collect")
      m("trace.setup_s") = tr.median("setup")
      m("trace.overhead_pct") = 100.0 * (m("trace.setup_s") - plainSetup) / plainSetup
      out.notes("untraced_setup_s") = Json.num(plainSetup)

      val core = tr.span("layers") { layers(ctx, tr, idx, m) }
      m("core.true_hits_per_pt") = core.trueHits.toDouble / core.points
      m("core.candidates_per_pt") = core.candidates.toDouble / core.points
      m("core.pip_tests_per_pt") = core.pipTests.toDouble / core.points
      m("core.sth_pct") = 100.0 * core.sthPoints / core.points

      // The operator with its accumulators on; its output goes through the
      // gate and its counts must equal the kernel's.
      ctx.awaitBroadcastCleanup()
      out.attempted += ctx.n
      val metrics = Adapter.newSparkMetrics(ctx.spark)
      try {
        val c = tr.span("spark.join") {
          Gate.collect(SpatialJoin.joinWithIndex(ctx.points, idx, w.exact, Some(metrics)), ctx.n, ctx.ref.polys.length)
        }
        out.failed += Gate.failedPoints(c, ctx.ref, ctx.bound)
        val s = Adapter.sparkCounts(metrics)
        m("spark.probes") = s.points.toDouble
        m("spark.true_hits") = s.trueHits.toDouble
        m("spark.candidates") = s.candidates.toDouble
        m("spark.pip_tests") = s.pipTests.toDouble
        m("spark.pairs") = c.rows.toDouble
        out.countsAgree = s.points == core.points && s.trueHits == core.trueHits &&
          s.candidates == core.candidates && s.pipTests == core.pipTests &&
          c.rows == core.pairs
        if (!out.countsAgree)
          Console.err.println(s"[perfbench] spark counts $s (pairs ${c.rows}) differ from kernel counts $core")
      } catch {
        case e: Exception =>
          e.printStackTrace()
          out.failed += ctx.n
          Seq("spark.probes", "spark.true_hits", "spark.candidates", "spark.pip_tests", "spark.pairs")
            .foreach(k => m(k) = 0.0)
      }
      out.notes("spark_counts_equal_core") = out.countsAgree.toString
    }
    out
  }

  /** `ActIndex.build` (+ `train`) phase by phase through the layers' public
    * functions, one span per phase. Returns the index and its shape.
    */
  private def tracedSetup(ctx: Ctx, tr: Tracer): (ActIndex, Map[String, Double]) = tr.span("setup") {
    val w = ctx.w
    val polys = tr.span("spark.collect") { SpatialJoin.collectPolygons(ctx.polysDf) }
    val (covs, ints) = tr.span("grid.covering") {
      (polys.par.map(p => p.id -> Covering.covering(p)).seq.toSeq,
       polys.par.map(p => p.id -> Covering.interiorCovering(p)).seq.toSeq)
    }
    val sc = tr.span("core.merge") { SuperCovering.build(covs, ints) }
    w.precision.foreach { p =>
      tr.span("core.refine") { SuperCovering.refineToPrecision(sc, CellId.levelForPrecision(p), polys) }
    }
    val cells = sc.cellCount
    val idx = tr.span("act.build") { ActIndex.fromSuperCovering(polys, sc, Workload.BitsPerLevel) }
    val shape = Map(
      "grid.covering_cells" -> (covs.map(_._2.size).sum + ints.map(_._2.size).sum).toDouble,
      "core.cells" -> cells.toDouble,
      "act.bytes" -> idx.act.sizeBytes.toDouble,
      "act.nodes" -> idx.act.nodeCount.toDouble,
      "act.lut_bytes" -> idx.lut.sizeBytes.toDouble)
    val refinements =
      if (w.trainPoints == 0) 0L
      else tr.span("core.train") {
        idx.train(ctx.trainIds, maxBytes = idx.act.sizeBytes + Workload.TrainBudgetBytes)
      }
    (idx, shape + ("core.train_refinements" -> refinements.toDouble))
  }

  /** Probe-side layers, each timed on its own over the workload's points.
    * Returns the kernel's counts for the gate's count comparison.
    */
  private def layers(ctx: Ctx, tr: Tracer, idx: ActIndex, m: mutable.Map[String, Double]): Counts = {
    val w = ctx.w
    val n = ctx.n
    val nt = ctx.o.nproc
    val spark = ctx.spark
    import spark.implicits._

    /** One untimed warm-up, then `reps` spans called `name`; median seconds. */
    def timed(name: String, reps: Int = 5)(body: => Unit): Double = {
      body
      (0 until reps).foreach(_ => tr.span(name)(body))
      tr.median(name)
    }
    var sink = 0L

    m("spark.scan_mpts") = n / timed("spark.scan") { sink += ctx.points.count() } / 1e6
    m("spark.decode_mpts") = n / timed("spark.decode", reps = 3) {
      sink += ctx.points.select("id", "x", "y").as[(Long, Double, Double)].mapPartitions { it =>
        var s = 0L
        it.foreach { case (id, x, y) => s += CellId.fromPoint(x, y) ^ id }
        Iterator.single(s)
      }.collect().sum
    } / 1e6

    val xs = ctx.xs
    val ys = ctx.ys
    val leafIds = ctx.leafIds
    m("grid.from_point_ns") = 1e9 * timed("grid.from_point") {
      var i = 0
      while (i < n) { sink += CellId.fromPoint(xs(i), ys(i)); i += 1 }
    } / n

    val act = idx.act
    m("act.probe_ns") = 1e9 * timed("act.probe_1t") {
      var i = 0
      while (i < n) { sink += act.probe(leafIds(i)); i += 1 }
    } / n
    val chunks = Array.tabulate(nt) { t =>
      val a = (n.toLong * t / nt).toInt
      val b = (n.toLong * (t + 1) / nt).toInt
      (java.util.Arrays.copyOfRange(xs, a, b), java.util.Arrays.copyOfRange(ys, a, b),
       java.util.Arrays.copyOfRange(leafIds, a, b))
    }
    m("act.probe_mpts_nt") = n / timed("act.probe_nt") {
      sink += Timing.parallel(nt) { t =>
        val ids = chunks(t)._3
        var s = 0L
        var i = 0
        while (i < ids.length) { s += act.probe(ids(i)); i += 1 }
        s
      }.sum
    } / 1e6

    var core: Counts = null
    m("core.kernel_mpts_1t") = n / timed("core.kernel_1t") {
      core = Adapter.kernel(idx, w.exact, xs, ys, leafIds)
    } / 1e6
    m("core.kernel_mpts_nt") = n / timed("core.kernel_nt") {
      val parts = Timing.parallel(nt) { t =>
        val (cx, cy, ci) = chunks(t)
        Adapter.kernel(idx, w.exact, cx, cy, ci)
      }
      require(parts.reduce(_ + _) == core, "multi-threaded kernel counts differ from single-threaded")
    } / 1e6

    // PIP tests replayed over the candidate pairs the exact join refines;
    // the approximate join runs none.
    m("geo.pip_ns") = if (!w.exact) 0.0 else {
      val pt = new mutable.ArrayBuilder.ofInt
      val pid = new mutable.ArrayBuilder.ofInt
      var i = 0
      while (i < n) {
        val c = Adapter.candidatePids(idx, act.probe(leafIds(i)))
        var k = 0
        while (k < c.length) { pt += i; pid += c(k); k += 1 }
        i += 1
      }
      val pts = pt.result()
      val pids = pid.result()
      val polys = idx.polys
      if (pts.isEmpty) 0.0 else 1e9 * timed("geo.pip") {
        var k = 0
        while (k < pts.length) {
          if (polys(pids(k)).contains(xs(pts(k)), ys(pts(k)))) sink += 1
          k += 1
        }
      } / pts.length
    }

    // One broadcast of the index, as every `joinWithIndex` call makes it.
    ctx.awaitBroadcastCleanup()
    Timing.repeat(minReps = 1, maxReps = 3, budgetS = 3.0) { _ =>
      val bc = tr.span("spark.broadcast") { spark.sparkContext.broadcast(idx) }
      bc.destroy()
      Timing.settleHeap()
    }
    m("spark.broadcast_s") = tr.median("spark.broadcast")

    if (sink == 42L) Console.err.println("")
    core
  }
}
