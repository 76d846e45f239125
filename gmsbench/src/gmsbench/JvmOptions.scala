package gmsbench

/** Prints the JVM options Spark's own launcher adds (module opens), so the
  * benchmark's JVM starts the way `spark-submit` would start it.
  */
object JvmOptions {
  def main(args: Array[String]): Unit =
    println(org.apache.spark.launcher.JavaModuleOptions.defaultModuleOptions())
}
