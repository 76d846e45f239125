package gmsbench

import java.lang.management.ManagementFactory
import org.apache.spark.ListenerBusDrain
import org.apache.spark.sql.SparkSession
import repro.graph.Reorder
import repro.metrics.Metrics
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** One reported figure. */
final case class Metric(name: String, value: Double, unit: String)

/** The result line: whether every output was right, queries attempted and
  * failed, and the metrics.
  */
final case class Report(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]) {
  def failFrac: Double = failed.toDouble / attempted

  def json: String = {
    def num(x: Double): String = {
      require(!x.isNaN && !x.isInfinite, s"metric value $x is not a number")
      x.toString
    }
    val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }
}

/** Expected figures of a workload's inputs at [[Workloads.DefaultSeed]]. */
final case class Golden(n: Int, m: Long, degeneracy: Int, count: Long)

object Golden {
  def read(path: String): Map[String, Golden] = {
    val root = new com.fasterxml.jackson.databind.ObjectMapper().readTree(new java.io.File(path))
    require(root.get("seed").asLong == Workloads.DefaultSeed,
            s"$path is not for seed ${Workloads.DefaultSeed}")
    val ws = root.get("workloads")
    ws.fieldNames().asScala.map { name =>
      val w = ws.get(name)
      name -> Golden(w.get("n").asInt, w.get("m").asLong, w.get("degeneracy").asInt,
                     w.get("count").asLong)
    }.toMap
  }
}

/** Timed queries of one run: wall seconds of every attempt, and the patterns
  * of the verified ones.
  */
final case class Loop(times: Seq[Double], patterns: Long, attempted: Int, failed: Int)

object Bench {

  /** Set-ups per run; `setup_s` reports their median. */
  val SetupReps = 3

  /** Untimed queries after set-up, for at least this long: the JIT keeps
    * compiling Spark's planner for about a minute after start, and the
    * first bk-social queries after the set-ups ran 1.3–1.5× slower than
    * those 40 s later.
    */
  val WarmupS = 16.0

  def session(cores: Int, workDir: String): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("gmsbench")
      .config("spark.default.parallelism", Workloads.Parallelism)
      .config("spark.sql.shuffle.partitions", Workloads.Parallelism)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .getOrCreate()

  def processCpuS: Double =
    ManagementFactory.getOperatingSystemMXBean
      .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime / 1e9

  /** One query, from the call to its verified count. A thrown exception or a
    * count other than `expected` is a failure.
    */
  def timedQuery(expected: Long)(q: => Long): (Double, Boolean) = {
    val t0 = System.nanoTime()
    val ok =
      try q == expected
      catch { case NonFatal(e) => println(s"query failed: $e"); false }
    ((System.nanoTime() - t0) / 1e9, ok)
  }

  /** Closed loop: one query in flight, the next sent when the previous one
    * returns, for `seconds` of wall time.
    */
  def loop(seconds: Double, expected: Long)(q: => Long): Loop = {
    val times = ArrayBuffer.empty[Double]
    var failed = 0
    val end = System.nanoTime() + (seconds * 1e9).toLong
    while (times.isEmpty || System.nanoTime() < end) {
      val (dt, ok) = timedQuery(expected)(q)
      times += dt
      if (!ok) failed += 1
    }
    Loop(times.toSeq, (times.length - failed) * expected, times.length, failed)
  }

  /** Run workload `w` at `seed`: set up, check the inputs and the reference
    * count, run untimed queries for `warmupS` (at least two), then measure
    * for `seconds` untraced (`trace = false`, the end-to-end metrics) or
    * traced (the per-layer metrics). `traceOut` names the file the spans of
    * a traced run are written to.
    */
  def run(spark: SparkSession, w: Workload, seed: Long, seconds: Double, warmupS: Double,
          trace: Boolean, cores: Int, sessionS: Double, golden: Map[String, Golden],
          traceOut: String): Report = {
    println(s"workload ${w.name} seed $seed local[$cores] parallelism ${Workloads.Parallelism}")

    // Set-up, repeated; each repetition also warms the JIT with one query.
    var in: Inputs = null
    val warm = ArrayBuffer.empty[Long]
    val repS = (0 until SetupReps).map { _ =>
      if (in != null) in.graph.edges.unpersist(blocking = true)
      Metrics.timed { in = w.setup(spark, seed); warm += w.query(in) }._2
    }
    val setupS = sessionS + Stats.median(repS)
    println(f"setup: session $sessionS%.3f s, repetitions ${repS.map(s => f"$s%.3f").mkString(" ")} s")

    // Reference, outside set-up and the timed region.
    val local = in.graph.toLocal
    val degeneracy = Reorder.degeneracyLocal(local)._3
    val ref = w.reference(in)
    println(s"inputs: n=${local.n} m=${local.m} degeneracy=$degeneracy reference=$ref")
    var correct = true
    def check(ok: Boolean, what: String): Unit =
      if (!ok) { correct = false; println(s"CHECK FAILED: $what") }
    val expected =
      if (seed != Workloads.DefaultSeed) ref
      else golden.get(w.name) match {
        case Some(gd) =>
          check(gd == Golden(local.n, local.m, degeneracy, ref), s"inputs differ from golden $gd")
          gd.count
        case None =>
          check(false, s"no golden figures for ${w.name}")
          ref
      }
    check(warm.forall(_ == expected), s"warm-up counts $warm != $expected")

    val warmEnd = System.nanoTime() + (warmupS * 1e9).toLong
    var warmups = 0
    while (warmups < 2 || System.nanoTime() < warmEnd) {
      val c = w.query(in)
      check(c == expected, s"warm-up count $c != $expected")
      warmups += 1
    }
    println(f"warm-up: $warmups untimed queries in $warmupS%.1f s or more")

    val report =
      if (trace) traced(spark, w, in, seconds, cores, expected, traceOut, check)
      else {
        val cpu0 = processCpuS
        val l = loop(seconds, expected)(w.query(in))
        val cpuS = (processCpuS - cpu0) / l.attempted
        val t = Stats.tail(l.times)
        println(s"query times: ${l.times.map(x => f"$x%.3f").mkString(" ")} s")
        println(f"query_s.tail is p${t.percentile}%.1f: ${t.beyond} of ${t.samples} samples beyond it")
        Report(true, l.attempted, l.failed, Seq(
          Metric("query_s.p50", Stats.median(l.times), "s"),
          Metric("query_s.tail", t.value, "s"),
          Metric("patterns_per_s", l.patterns / l.times.sum, "patterns/s"),
          Metric("cpu_s", cpuS, "s"),
          Metric("setup_s", setupS, "s")))
      }
    println(f"fail_frac = ${report.failFrac}%.4f (${report.failed} of ${report.attempted})")
    report.metrics.foreach(m => println(s"${m.name} = ${m.value} ${m.unit}"))
    report.copy(correct = correct && report.failed == 0)
  }

  /** Per-layer figures of one traced query. */
  private final case class Layers(selfS: Map[String, Double], fan: Fanout, peelRounds: Int) {
    def s(name: String): Double = selfS.getOrElse(name, 0.0)
  }

  /** Traced run: untraced and traced queries alternate, so the tracing
    * overhead is measured under the same JIT and cache state.
    */
  private def traced(spark: SparkSession, w: Workload, in: Inputs, seconds: Double,
                     cores: Int, expected: Long, traceOut: String,
                     check: (Boolean, String) => Unit): Report = {
    val sc = spark.sparkContext
    val collector = new TaskCollector
    sc.addSparkListener(collector)
    val tr = new Tracer(Some(sc))

    // Time the hidden layers by separate calls, drain the listener bus, and
    // read the query's layers off its spans and tasks.
    def analyse(t: Traced): Layers = {
      val root = tr.last("query")
      val mine = tr.last("core.mine")
      t.hidden.foreach { case (name, call) => tr.separate(mine.id, name)(call()) }
      ListenerBusDrain(sc)
      val spans = tr.spans.filter(_.query == root.query)
      val self = Span.selfTimes(spans)
      val byName = spans.groupBy(_.name).map { case (n, ss) => n -> ss.map(s => self(s.id)).sum / 1e9 }
      Layers(byName, Fanout.of(collector.tasksOf(mine.id), byName("core.mine"), cores), t.peelRounds)
    }

    val untracedS = ArrayBuffer.empty[Double]
    val tracedS = ArrayBuffer.empty[Double]
    val layers = ArrayBuffer.empty[Layers]
    var failed = 0
    val end = System.nanoTime() + (seconds * 1e9).toLong
    while (tracedS.isEmpty || untracedS.isEmpty || System.nanoTime() < end) {
      val ok =
        if (untracedS.length <= tracedS.length) {
          val (dt, ok) = timedQuery(expected)(w.query(in))
          untracedS += dt
          ok
        } else {
          var t: Traced = null
          val (dt, ok) = timedQuery(expected) { t = tr.span("query")(w.traced(in, tr, 0)); t.count }
          tracedS += dt
          if (t != null) layers += analyse(t)
          ok
        }
      if (!ok) failed += 1
    }

    // Single-thread baseline of the mining layer, the same traced query with tasks = 1.
    val one = tr.span("query")(w.traced(in, tr, 1))
    check(one.count == expected, s"single-task count ${one.count} != $expected")
    val mine1t = analyse(one).s("core.mine")
    val (sets, buildS) = Metrics.timed(w.sets(in))
    val setBytes = sets.iterator.map(_.storageBytes).sum
    val lay = w.layout(in)
    sc.removeSparkListener(collector)
    writeSpans(tr.spans, traceOut)

    val spanNames = layers.flatMap(_.selfS.keys).distinct.sorted
    spanNames.foreach { n =>
      val med = Stats.median(layers.map(_.s(n)))
      println(f"self time $n%-16s median $med%.4f s over ${layers.length} traced queries")
    }
    def med(f: Layers => Double): Double = if (layers.isEmpty) 0.0 else Stats.median(layers.map(f))
    val mineS = med(_.s("core.mine"))
    Report(true, untracedS.length + tracedS.length, failed, Seq(
      Metric("graph.reorder_s", med(_.s("graph.reorder")), "s"),
      Metric("graph.peel_rounds", med(_.peelRounds), "count"),
      Metric("graph.to_local_s", med(_.s("graph.to_local")), "s"),
      Metric("graph.orient_s", med(_.s("graph.orient")), "s"),
      Metric("graph.csr_bytes", lay.csrBytes, "bytes"),
      Metric("core.mine_s", mineS, "s"),
      Metric("core.units", lay.units, "count"),
      Metric("core.bcast_bytes", lay.bcastBytes, "bytes"),
      Metric("core.fanout.tasks", med(_.fan.tasks), "count"),
      Metric("core.fanout.task_run_s", med(_.fan.runS), "s"),
      Metric("core.fanout.task_cpu_s", med(_.fan.cpuS), "s"),
      Metric("core.fanout.gc_s", med(_.fan.gcS), "s"),
      Metric("core.fanout.skew", med(_.fan.skew), "ratio"),
      Metric("core.fanout.idle_s", med(_.fan.idleS), "s"),
      Metric("core.stall_proxy", med(_.fan.stallProxy), "ratio"),
      Metric("core.mine_1t_s", mine1t, "s"),
      Metric("core.par_eff", mine1t / (mineS * cores), "ratio"),
      Metric("setalg.build_all_s", buildS, "s"),
      Metric("setalg.bytes", setBytes, "bytes"),
      Metric("query.unattributed_s", med(_.s("query")), "s"),
      Metric("trace.overhead_s", Stats.median(tracedS) - Stats.median(untracedS), "s")))
  }

  /** All spans as one JSON document, written once at the end of the run. */
  private def writeSpans(spans: Seq[Span], path: String): Unit = {
    val f = new java.io.File(path)
    Option(f.getParentFile).foreach(_.mkdirs())
    val rows = spans.map { s =>
      s"""{"id": ${s.id}, "name": "${s.name}", "query": ${s.query}, "parent": ${s.parent}, """ +
      s""""start_ns": ${s.startNs}, "end_ns": ${s.endNs}, "measured": "${s.measured}"}"""
    }
    val out = new java.io.PrintWriter(f, "UTF-8")
    try out.print(rows.mkString("[\n", ",\n", "\n]\n")) finally out.close()
  }
}
