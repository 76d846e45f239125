package gmsbench

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._

/** The benchmark's own tests, on the test-size workloads.
  *
  * `gmsbench.SelfTest <BENCHMARK.json> <work dir>`; exits 1 if any test fails.
  */
object SelfTest {
  private var failures = 0

  private def test(name: String)(body: => Unit): Unit =
    try { body; println(s"ok   $name") }
    catch {
      case e: Throwable =>
        failures += 1
        println(s"FAIL $name: $e")
        e.printStackTrace(System.out)
    }

  private def assertEq[T](got: T, want: T, what: String): Unit =
    if (got != want) throw new AssertionError(s"$what: got $got, want $want")

  private def span(id: Int, parent: Int, start: Long, end: Long, name: String = "s",
                   measured: String = "direct"): Span =
    Span(id, name, 0, parent, start, end, measured)

  private def withSession[T](cores: Int, work: String)(body: SparkSession => T): T = {
    val spark = Bench.session(cores, work)
    try body(spark) finally spark.stop()
  }

  def main(args: Array[String]): Unit = {
    val Array(benchmarkJson, work) = args
    val contract = new ObjectMapper().readTree(new java.io.File(benchmarkJson))
    def declared(key: String): Seq[(String, String)] =
      contract.get(key).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toSeq

    test("self time is duration minus the union of child intervals") {
      // root [0,100]: children a [10,40] and b [30,60] overlap; a has child c [15,20].
      val spans = Seq(span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 0, 30, 60), span(3, 1, 15, 20))
      val self = Span.selfTimes(spans)
      assertEq(self, Map(0 -> 50L, 1 -> 25L, 2 -> 30L, 3 -> 5L), "self times")
      // A child reaching past its parent is clipped to the parent.
      assertEq(Span.selfTimes(Seq(span(0, -1, 0, 10), span(1, 0, 5, 30)))(0), 5L, "clipped")
    }

    test("traced self times of one query add up to its wall time") {
      val tr = new Tracer(None)
      tr.span("query") {
        tr.span("graph.reorder")(Thread.sleep(20))
        tr.span("core.mine")(Thread.sleep(40))
      }
      val mine = tr.last("core.mine")
      tr.separate(mine.id, "graph.to_local")(Thread.sleep(10))
      val spans = tr.spans
      val self = Span.selfTimes(spans)
      val root = spans.find(_.parent < 0).get
      assertEq(spans.map(s => self(s.id)).sum, root.durNs, "sum of self times")
      val hidden = tr.last("graph.to_local")
      assertEq(hidden.measured, "separate-call", "hidden layer label")
      assertEq(hidden.startNs, mine.startNs, "separate call laid out at its parent's start")
      assertEq(self(mine.id), mine.durNs - hidden.durNs, "mining self time")
    }

    test("tail is the highest percentile with min(10, S/4) samples beyond it") {
      val t100 = Stats.tail((1 to 100).map(_.toDouble))
      assertEq((t100.value, t100.percentile, t100.beyond, t100.samples), (90.0, 90.0, 10, 100), "S=100")
      val t8 = Stats.tail((1 to 8).map(_.toDouble))
      assertEq((t8.value, t8.percentile, t8.beyond), (6.0, 75.0, 2), "S=8")
      assertEq(Stats.tail(Seq(3.0)).value, 3.0, "S=1")
    }

    test("fan-out figures follow from the task metrics") {
      val tasks = Seq(TaskRec(1, 5, 1000000L, 0), TaskRec(2, 10, 8000000L, 1),
                      TaskRec(2, 30, 20000000L, 2), TaskRec(2, 20, 10000000L, 0))
      val f = Fanout.of(tasks, mineS = 0.05, cores = 4)
      assertEq(f.tasks, 4, "tasks")
      assertEq(f.skew, 1.5, "skew: max 30 / median 20 of the longest stage")
      assert(math.abs(f.runS - 0.065) < 1e-12 && math.abs(f.idleS - (0.2 - 0.065)) < 1e-12, f.toString)
      assert(math.abs(f.stallProxy - (1 - 0.039 / 0.2)) < 1e-12, f.toString)
    }

    withSession(4, work) { spark =>
      test("a wrong count fails every query and raises fail_frac") {
        val w = Workloads.tiny.find(_.name == "kc-planted").get
        val in = w.setup(spark, 7)
        val right = w.query(in)
        val bad = Bench.loop(0.3, right + 1)(w.query(in))
        assert(bad.attempted >= 1)
        assertEq(bad.failed, bad.attempted, "failed")
        assertEq(Report(true, bad.attempted, bad.failed, Nil).failFrac, 1.0, "fail_frac")
        val good = Bench.loop(0.3, right)(w.query(in))
        assertEq(good.failed, 0, "failed with the right count")
        assertEq(good.patterns, good.attempted * right, "patterns")
      }

      for (w <- Workloads.tiny; trace <- Seq(false, true)) {
        test(s"${w.name} trace=$trace emits every declared metric with its unit") {
          val r = Bench.run(spark, w, 7, 0.3, 0.0, trace, 4, 1.0, Map.empty,
                            s"$work/trace/selftest-${w.name}.json")
          val want = declared(if (trace) "per_layer" else "end_to_end")
          assertEq(r.metrics.map(m => m.name -> m.unit), want, "metrics")
          val parsed: JsonNode = new ObjectMapper().readTree(r.json)
          assertEq(parsed.get("metrics").fieldNames().asScala.toSeq, want.map(_._1), "json keys")
          assert(r.correct && r.failed == 0 && r.attempted >= (if (trace) 2 else 1), r.toString)
        }
      }

      test("the reference path agrees with the query on every workload") {
        Workloads.tiny.foreach { w =>
          val in = w.setup(spark, 11)
          assertEq(w.query(in), w.reference(in), w.name)
        }
      }

      test("the seed reaches the generators") {
        Workloads.tiny.foreach { w =>
          val a = w.setup(spark, 5).graph.toLocal
          val b = w.setup(spark, 6).graph.toLocal
          assert(!(a.offsets.sameElements(b.offsets) && a.adj.sameElements(b.adj)),
                 s"${w.name}: seeds 5 and 6 give the same graph")
        }
      }
    }

    test("the same seed gives the same n, m and count under local[2] and local[4]") {
      def figures(cores: Int): Seq[(Int, Long, Long)] = withSession(cores, work) { spark =>
        Workloads.tiny.map { w =>
          val in = w.setup(spark, 5)
          (in.graph.n, in.graph.m, w.query(in))
        }
      }
      assertEq(figures(2), figures(4), "figures")
    }

    println(if (failures == 0) "all tests passed" else s"$failures test(s) failed")
    if (failures > 0) sys.exit(1)
  }
}
