package gmsbench

import org.apache.spark.sql.SparkSession
import repro.core.{KClique, MaximalCliques, SubgraphIso}
import repro.graph.{GraphGen, LocalGraph, Reorder, SparkGraph}
import repro.setalg.{SetFactory, VertexSet}

/** A workload's generated inputs: the cached graph, plus vertex labels and
  * the query pattern for subgraph isomorphism.
  */
final case class Inputs(graph: SparkGraph, labels: Array[Int] = null,
                        pattern: SubgraphIso.Pattern = null)

/** Figures of a query's layers that follow from its inputs (computed, not
  * timed): bytes of the collected CSR, fan-out work units, and bytes of the
  * arrays the kernel broadcasts.
  */
final case class Layout(csrBytes: Long, units: Long, bcastBytes: Long)

/** One traced query: its count, its ADG peel rounds (0 without ADG), and the
  * layers its entry point hides, as (span name, the same public call on the
  * same inputs).
  */
final case class Traced(count: Long, peelRounds: Int, hidden: Seq[(String, () => Any)] = Nil)

/** A mining workload: inputs from a seed, the query a user would run on
  * them, the same query spelled out as one call per layer, and an
  * independent reference for its pattern count.
  */
sealed trait Workload {
  def name: String

  /** Generate the inputs from `seed` and cache the edge set. */
  def setup(spark: SparkSession, seed: Long): Inputs

  /** The query: one call to the public entry point. Returns the pattern count. */
  def query(in: Inputs): Long

  /** The same query with a span around each layer call; `tasks` is passed to
    * the kernel's own `tasks` parameter (0 = its default, 1 = single thread).
    */
  def traced(in: Inputs, tr: Tracer, tasks: Int): Traced

  /** The pattern count by an independent path (other order, set
    * representation or fan-out).
    */
  def reference(in: Inputs): Long

  /** Every neighbourhood as the query's set representation (`LocalGraph.neighborhoods`). */
  def sets(in: Inputs): Array[VertexSet]

  /** The computed figures of the query's layers on these inputs. */
  def layout(in: Inputs): Layout
}

/** Maximal cliques by BK-GMS-ADG, the paper's headline pipeline. */
final case class BkWorkload(name: String, gen: (SparkSession, Long) => SparkGraph)
    extends Workload {
  private val eps = 0.1
  private val variant = MaximalCliques.BkGmsAdg(eps)

  def setup(spark: SparkSession, seed: Long): Inputs = {
    val g = gen(spark, seed)
    g.m
    Inputs(g)
  }

  def query(in: Inputs): Long = MaximalCliques.run(in.graph, variant).cliques

  // `MaximalCliques.run` is these three public calls in this order.
  def traced(in: Inputs, tr: Tracer, tasks: Int): Traced = {
    val g = in.graph
    val (rounds, rank) = tr.span("graph.reorder") {
      val peel = Reorder.adg(g, eps)
      (peel.iterations, Reorder.rankArray(peel.order, g.n))
    }
    val local = tr.span("graph.to_local")(g.toLocal)
    val r = tr.span("core.mine")(MaximalCliques.mineLocal(g.spark, local, rank, variant, tasks))
    Traced(r.cliques, rounds)
  }

  def reference(in: Inputs): Long = MaximalCliques.run(in.graph, MaximalCliques.BkDas).cliques

  def sets(in: Inputs): Array[VertexSet] = in.graph.toLocal.neighborhoods(variant.sets)

  // One unit per seed vertex; the CSR and the rank array are broadcast.
  def layout(in: Inputs): Layout = {
    val local = in.graph.toLocal
    Layout(local.csrBytes, local.n, local.csrBytes + 4L * local.n)
  }
}

/** k-clique counting, edge-parallel over sorted sets, after exact DGR on the CSR. */
final case class KcWorkload(name: String, n: Int, bgEdges: Long, cliques: Int,
                            sizes: Seq[Int], k: Int) extends Workload {
  def setup(spark: SparkSession, seed: Long): Inputs = {
    val g = GraphGen.plantedCliques(spark, n, bgEdges, cliques, sizes, Workloads.genSeed(seed, 1))
    g.m
    Inputs(g)
  }

  def query(in: Inputs): Long = {
    val rank = Reorder.degeneracyLocal(in.graph.toLocal)._1
    KClique.count(in.graph, k, rank, KClique.EdgeParallel, SetFactory.sorted)
  }

  // `KClique.count` collects and orients the CSR inside; both are hidden layers.
  def traced(in: Inputs, tr: Tracer, tasks: Int): Traced = {
    val g = in.graph
    val local = tr.span("graph.to_local")(g.toLocal)
    val rank = tr.span("graph.reorder")(Reorder.degeneracyLocal(local)._1)
    val c = tr.span("core.mine")(
      KClique.count(g, k, rank, KClique.EdgeParallel, SetFactory.sorted, tasks))
    Traced(c, 0, Seq("graph.to_local" -> (() => g.toLocal),
                     "graph.orient" -> (() => local.orient(rank))))
  }

  def reference(in: Inputs): Long = {
    val rank = Reorder.degeneracyLocal(in.graph.toLocal)._1
    KClique.count(in.graph, k, rank, KClique.NodeParallel, SetFactory.roaring)
  }

  private def oriented(in: Inputs): (LocalGraph, LocalGraph) = {
    val local = in.graph.toLocal
    (local, local.orient(Reorder.degeneracyLocal(local)._1))
  }

  def sets(in: Inputs): Array[VertexSet] = oriented(in)._2.neighborhoods(SetFactory.sorted)

  // One unit per oriented edge; the oriented CSR is broadcast.
  def layout(in: Inputs): Layout = {
    val (local, o) = oriented(in)
    Layout(local.csrBytes, o.m, o.csrBytes)
  }
}

/** Non-induced subgraph isomorphism (SI-Steal) of a hub-rooted labeled star
  * in a labeled Erdős-Rényi graph.
  */
final case class SiWorkload(name: String, n: Int, p: Double, labelCount: Int,
                            leafLabels: Seq[Int]) extends Workload {
  def setup(spark: SparkSession, seed: Long): Inputs = {
    val target = GraphGen.erLocal(n, p, Workloads.genSeed(seed, 2))
    // Labels in equal shares, so the number of candidate roots is fixed.
    val rnd = new scala.util.Random(Workloads.genSeed(seed, 3))
    val labels = rnd.shuffle(Seq.tabulate(n)(_ % labelCount)).toArray
    val g = SparkGraph.fromLocal(spark, target)
    g.m
    Inputs(g, labels, Workloads.hubStar(target, labels, leafLabels))
  }

  private def count(in: Inputs, variant: SubgraphIso.Variant, tasks: Int): Long =
    SubgraphIso.count(in.graph, in.labels, in.pattern, induced = false, variant,
                      SetFactory.sorted, tasks)

  def query(in: Inputs): Long = count(in, SubgraphIso.WorkSteal, 0)

  // `SubgraphIso.count` collects the CSR inside.
  def traced(in: Inputs, tr: Tracer, tasks: Int): Traced = {
    val c = tr.span("core.mine")(count(in, SubgraphIso.WorkSteal, tasks))
    Traced(c, 0, Seq("graph.to_local" -> (() => in.graph.toLocal)))
  }

  def reference(in: Inputs): Long = count(in, SubgraphIso.Base, 0)

  def sets(in: Inputs): Array[VertexSet] = in.graph.toLocal.neighborhoods(SetFactory.sorted)

  // Units are the depth-2 (root, neighbour) pairs, one root-only unit per
  // isolated vertex; the CSR, the labels and the pattern are broadcast.
  def layout(in: Inputs): Layout = {
    val local = in.graph.toLocal
    val units = (0 until local.n).map(v => math.max(1, local.degree(v)).toLong).sum
    val q = in.pattern.graph
    Layout(local.csrBytes, units, local.csrBytes + 4L * local.n + q.csrBytes + 4L * q.n)
  }
}

object Workloads {

  /** The seed whose expected figures are recorded in `golden.json`. */
  val DefaultSeed = 1L

  /** Spark's default parallelism, fixed: `rand()` is seeded per partition,
    * so a fixed partition count makes each generated graph a function of its
    * parameters and seed only, whatever `local[N]` runs it.
    */
  val Parallelism = 8

  /** Star labels of the SI query: one leaf per entry, so the query's label
    * multiset, and with it the amount of search work, does not depend on
    * the seed.
    */
  private val StarLeaves = Seq(0, 1, 2, 0, 1)

  val all: Seq[Workload] = Seq(
    BkWorkload("bk-social", (s, seed) => GraphGen.rmat(s, 11, 32, seed = genSeed(seed, 0))),
    KcWorkload("kc-planted", n = 6000, bgEdges = 100000, cliques = 40,
               sizes = Seq(8, 12, 16, 22, 30), k = 7),
    SiWorkload("si-er", n = 2400, p = 0.01, labelCount = 3, leafLabels = StarLeaves),
  )

  /** The same workloads at test size. */
  val tiny: Seq[Workload] = Seq(
    BkWorkload("bk-social", (s, seed) => GraphGen.rmat(s, 7, 8, seed = genSeed(seed, 0))),
    KcWorkload("kc-planted", n = 300, bgEdges = 1200, cliques = 5,
               sizes = Seq(6, 8, 10), k = 5),
    SiWorkload("si-er", n = 150, p = 0.08, labelCount = 3, leafLabels = StarLeaves),
  )

  /** A generator seed per (workload seed, use): SplitMix64 finalisation, so
    * neighbouring workload seeds give unrelated `rand()` streams.
    */
  def genSeed(seed: Long, salt: Long): Long = {
    var z = seed * 0x9E3779B97F4A7C15L + salt
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** The star rooted at the max-degree vertex: leaves are its neighbours in
    * ascending order, the first one carrying each wanted label and adjacent
    * to no leaf chosen before, so the query is exactly K(1, leaves).
    */
  def hubStar(g: LocalGraph, labels: Array[Int], leafLabels: Seq[Int]): SubgraphIso.Pattern = {
    val hub = (0 until g.n).maxBy(g.degree)
    val nbrs = g.neighbors(hub)
    val leaves = scala.collection.mutable.ArrayBuffer.empty[Int]
    leafLabels.foreach { l =>
      val pick = nbrs.find(v =>
        labels(v) == l && !leaves.contains(v) && !leaves.exists(g.hasEdge(v, _)))
      require(pick.isDefined, s"hub $hub has no free neighbour with label $l")
      leaves += pick.get
    }
    SubgraphIso.Pattern(LocalGraph.star(leaves.length + 1),
                        (hub +: leaves.toSeq).map(labels).toArray)
  }
}
