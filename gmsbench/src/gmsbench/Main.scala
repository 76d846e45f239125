package gmsbench

import java.lang.management.ManagementFactory

/** `gmsbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --golden <golden.json> --work <dir>`
  *
  * Runs one workload on a single JVM with Spark `local[N]`, N = min(4, cores),
  * and prints the result as the last line of standard output. Spark's scratch
  * files and the span file of a traced run go under `--work`.
  */
object Main {

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => usage(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def opt(k: String): String = opts.getOrElse(k, usage(s"missing --$k"))
    val workload = Workloads.all.find(_.name == opt("workload"))
      .getOrElse(usage(s"unknown workload ${opt("workload")}"))
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") match {
      case "0" => false
      case "1" => true
      case t => usage(s"--trace must be 0 or 1, not $t")
    }
    val golden = Golden.read(opt("golden"))
    val work = opt("work")

    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val spark = Bench.session(cores, work)
    // Session start counts from JVM start: the user waits for both.
    val sessionS =
      (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
    val report =
      try Bench.run(spark, workload, seed, seconds, Bench.WarmupS, trace, cores, sessionS, golden,
                    s"$work/trace/${workload.name}-seed$seed.json")
      finally spark.stop()
    println(report.json)
    Console.out.flush()
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"gmsbench: $msg")
    System.err.println("usage: --workload <" + Workloads.all.map(_.name).mkString("|") +
      "> --seed <n> --seconds <s> --trace <0|1> --golden <file> --work <dir>")
    sys.exit(2)
  }
}
