#include "workloads/benchmarks.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/rng.hpp"

namespace hwgc {

std::string_view benchmark_name(BenchmarkId id) {
  switch (id) {
    case BenchmarkId::kCompress: return "compress";
    case BenchmarkId::kCup: return "cup";
    case BenchmarkId::kDb: return "db";
    case BenchmarkId::kJavac: return "javac";
    case BenchmarkId::kJavacc: return "javacc";
    case BenchmarkId::kJflex: return "jflex";
    case BenchmarkId::kJlisp: return "jlisp";
    case BenchmarkId::kSearch: return "search";
  }
  return "?";
}

const std::vector<BenchmarkId>& all_benchmarks() {
  static const std::vector<BenchmarkId> kAll = {
      BenchmarkId::kCompress, BenchmarkId::kCup,    BenchmarkId::kDb,
      BenchmarkId::kJavac,    BenchmarkId::kJavacc, BenchmarkId::kJflex,
      BenchmarkId::kJlisp,    BenchmarkId::kSearch,
  };
  return kAll;
}

std::optional<BenchmarkId> parse_benchmark(std::string_view name) {
  for (const BenchmarkId id : all_benchmarks()) {
    if (benchmark_name(id) == name) return id;
  }
  return std::nullopt;
}

namespace {

std::uint32_t scaled(double scale, std::uint32_t base,
                     std::uint32_t minimum = 1) {
  const double v = static_cast<double>(base) * scale;
  return std::max(minimum, static_cast<std::uint32_t>(std::llround(v)));
}

/// Roots `children` through as many array objects as needed to respect the
/// kMaxPi pointer-area limit (large scales can exceed one array's fan-out).
void attach_rooted_array(GraphPlan& p,
                         const std::vector<std::uint32_t>& children) {
  for (std::size_t start = 0; start < children.size(); start += kMaxPi) {
    const std::size_t count = std::min<std::size_t>(kMaxPi, children.size() - start);
    const std::uint32_t arr = p.add(static_cast<Word>(count), 2);
    p.add_root(arr);
    for (std::size_t i = 0; i < count; ++i) {
      p.link(arr, static_cast<Word>(i), children[start + i]);
    }
  }
}

/// compress — SPEC _201_compress keeps long chains of buffer segments with
/// small side payloads. Object-level parallelism ~2.5: a vine whose nodes
/// carry one cheap leaf each. Extra cores beyond 2-3 find the worklist
/// empty almost always.
GraphPlan plan_compress(double scale, std::uint64_t seed) {
  GraphPlan p;
  Rng rng(seed);
  const std::uint32_t n = scaled(scale, 120'000, 16);
  // Two huge compression buffers: single objects no parallel object-level
  // collector can split (the paper's Section VII motivates sub-object,
  // cache-line-granularity work distribution with exactly this case).
  const std::uint32_t buffers = p.add(2, 2);
  p.add_root(buffers);
  p.link(buffers, 0, p.add(0, std::min<Word>(kMaxDelta, scaled(scale, 60'000))));
  p.link(buffers, 1, p.add(0, std::min<Word>(kMaxDelta, scaled(scale, 60'000))));
  // The segment chain: `next` in field 0 (pipelines across ~2 cores), one
  // cheap side payload per segment. Object-level parallelism saturates
  // around 3 cores (Table I row `compress`).
  std::uint32_t prev = p.add(2, 0);
  p.add_root(prev);
  for (std::uint32_t i = 1; i < n; ++i) {
    const std::uint32_t node = p.add(2, 0);
    const std::uint32_t leaf = p.add(0, rng.chance(0.5) ? 3 : 1);
    p.link(prev, 0, node);
    p.link(prev, 1, leaf);
    prev = node;
  }
  return p;
}

/// search — a recursive linear search structure: a bare chain of tiny
/// nodes. The critical path equals the whole graph; speedup plateaus
/// almost immediately (Table I: 74 % empty at 2 cores already).
GraphPlan plan_search(double scale, std::uint64_t seed) {
  GraphPlan p;
  Rng rng(seed);
  const std::uint32_t n = scaled(scale, 150'000, 8);
  // Field 0 holds an (often null) side branch and field 1 the `next` link:
  // the chain can only advance after the whole node is processed, so the
  // critical path is essentially the sequential walk — no speedup from 2
  // cores on. The 2-deep side branches keep ~1 gray object around so the
  // worklist is rarely empty at 1 core but runs dry with any second core.
  std::uint32_t prev = p.add(2, 1);
  p.add_root(prev);
  for (std::uint32_t i = 1; i < n; ++i) {
    const std::uint32_t node = p.add(2, 1);
    p.link(prev, 1, node);
    if (rng.chance(0.75)) {
      const std::uint32_t side = p.add(1, 0);
      const std::uint32_t tail = p.add(0, 0);
      p.link(side, 0, tail);
      p.link(prev, 0, side);
    }
    prev = node;
  }
  return p;
}

/// db — an in-memory database: an index fans out into thousands of
/// independent record chains; each record owns a small value object.
/// Plenty of parallelism, dominated by header loads for the many small
/// objects.
GraphPlan plan_db(double scale, std::uint64_t seed) {
  GraphPlan p;
  Rng rng(seed);
  const std::uint32_t chains = scaled(scale, 3'000, 4);
  const std::uint32_t records_per_chain = 42;

  const std::uint32_t root = p.add(0, 4);
  p.add_root(root);
  // Index layer: root -> index nodes -> chain heads.
  const std::uint32_t index_fan = 64;
  const std::uint32_t num_index = (chains + index_fan - 1) / index_fan;
  const std::uint32_t index_root = p.add(static_cast<Word>(num_index), 2);
  p.add_root(index_root);
  std::vector<std::uint32_t> index_nodes;
  for (std::uint32_t i = 0; i < num_index; ++i) {
    const std::uint32_t idx = p.add(index_fan, 2);
    index_nodes.push_back(idx);
    p.link(index_root, i, idx);
  }
  for (std::uint32_t c = 0; c < chains; ++c) {
    std::uint32_t prev = 0;
    for (std::uint32_t r = 0; r < records_per_chain; ++r) {
      const std::uint32_t rec = p.add(2, 1);  // field 0: next, 1: value
      const std::uint32_t val = p.add(0, 1 + static_cast<Word>(rng.below(2)));
      p.link(rec, 1, val);
      if (r == 0) {
        p.link(index_nodes[c / index_fan], c % index_fan, rec);
      } else {
        p.link(prev, 0, rec);
      }
      prev = rec;
    }
  }
  return p;
}

/// javac — compiler ASTs: many statement chains whose expression nodes
/// also reference a small set of symbol-table hubs. The hubs are hit by a
/// large fraction of all pointer fields, producing the header-lock CAM
/// conflicts of Table II (29 % at 16 cores).
GraphPlan plan_javac(double scale, std::uint64_t seed) {
  GraphPlan p;
  Rng rng(seed);
  const std::uint32_t methods = scaled(scale, 4'000, 2);
  const std::uint32_t stmts_per_method = 40;
  const std::uint32_t num_hubs = 24;

  // Hot symbol-table hubs; selection is heavily skewed so a handful of
  // addresses collide in the header-lock CAM.
  std::vector<std::uint32_t> hubs;
  const std::uint32_t symtab = p.add(num_hubs, 2);
  p.add_root(symtab);
  for (std::uint32_t h = 0; h < num_hubs; ++h) {
    const std::uint32_t hub = p.add(0, 6);
    p.link(symtab, h, hub);
    hubs.push_back(hub);
  }
  auto pick_hub = [&]() -> std::uint32_t {
    // ~70 % of references go to the two hottest hubs; this fan-in is what
    // collides in the header-lock CAM (Table II row `javac`).
    return rng.chance(0.7) ? hubs[rng.below(2)] : hubs[rng.below(num_hubs)];
  };

  std::vector<std::uint32_t> method_heads;
  method_heads.reserve(methods);
  for (std::uint32_t m = 0; m < methods; ++m) {
    std::uint32_t prev = 0;
    for (std::uint32_t s = 0; s < stmts_per_method; ++s) {
      // Statement: next + expression + two symbol references.
      const std::uint32_t stmt = p.add(4, 2);
      const std::uint32_t expr = p.add(2, 1);
      p.link(stmt, 1, expr);
      p.link(stmt, 2, pick_hub());
      p.link(stmt, 3, pick_hub());
      p.link(expr, 0, pick_hub());
      if (rng.chance(0.5)) {
        const std::uint32_t lit = p.add(0, 2);
        p.link(expr, 1, lit);
      }
      if (s == 0) {
        method_heads.push_back(stmt);
      } else {
        p.link(prev, 0, stmt);
      }
      prev = stmt;
    }
  }
  attach_rooted_array(p, method_heads);
  return p;
}

/// javacc — parser generator: a forest of narrow production trees. Wide
/// enough for 16 cores, with moderate per-node work.
GraphPlan plan_javacc(double scale, std::uint64_t seed) {
  GraphPlan p;
  Rng rng(seed);
  const std::uint32_t trees = scaled(scale, 5'000, 2);
  std::vector<std::uint32_t> tree_heads;
  tree_heads.reserve(trees);
  for (std::uint32_t t = 0; t < trees; ++t) {
    // Narrow tree: a spine of ~16 nodes, each with a small branch.
    std::uint32_t prev = 0;
    for (std::uint32_t s = 0; s < 16; ++s) {
      const std::uint32_t node = p.add(2, 1 + static_cast<Word>(rng.below(2)));
      if (s == 0) {
        tree_heads.push_back(node);
      } else {
        p.link(prev, 0, node);
      }
      if (rng.chance(0.7)) {
        const std::uint32_t branch = p.add(rng.chance(0.3) ? 1 : 0, 1);
        p.link(node, 1, branch);
        if (p.nodes[branch].pi == 1) {
          const std::uint32_t leaf = p.add(0, 1);
          p.link(branch, 0, leaf);
        }
      }
      prev = node;
    }
  }
  attach_rooted_array(p, tree_heads);
  return p;
}

/// jflex — scanner generator: a few long DFA transition chains. Enough
/// parallelism for ~8 cores; at 16 the worklist runs dry (Table I: 35 %).
GraphPlan plan_jflex(double scale, std::uint64_t seed) {
  GraphPlan p;
  Rng rng(seed);
  const std::uint32_t chains = 6;  // parallelism knob — deliberately fixed
  const std::uint32_t len = scaled(scale, 14'000, 4);
  const std::uint32_t root = p.add(chains, 2);
  p.add_root(root);
  for (std::uint32_t c = 0; c < chains; ++c) {
    std::uint32_t prev = 0;
    for (std::uint32_t i = 0; i < len; ++i) {
      // State node: next + one cheap attached action.
      const std::uint32_t node = p.add(2, 2);
      const std::uint32_t action = p.add(0, static_cast<Word>(rng.below(2)));
      p.link(node, 1, action);
      if (i == 0) {
        p.link(root, c, node);
      } else {
        p.link(prev, 0, node);
      }
      prev = node;
    }
  }
  return p;
}

/// jlisp — a Lisp interpreter's small cons-cell heap: a modest binary tree.
GraphPlan plan_jlisp(double scale, std::uint64_t seed) {
  GraphPlan p;
  Rng rng(seed);
  const std::uint32_t n = scaled(scale, 15'000, 8);
  const std::uint32_t root = p.add(2, 1);
  p.add_root(root);
  std::vector<std::uint32_t> frontier{root};
  std::uint32_t made = 1;
  std::size_t next = 0;
  while (made + 1 < n && next < frontier.size()) {
    const std::uint32_t parent = frontier[next++];
    for (Word f = 0; f < 2 && made + 1 < n; ++f) {
      // 70 % interior cons cells, 30 % atoms (pi = 0), so interior pointer
      // fields are almost always non-null and incur header transactions.
      // Force an interior cell when the frontier is about to die out.
      const bool must_extend = frontier.size() - next < 2;
      if (must_extend || rng.chance(0.7)) {
        const std::uint32_t cell = p.add(2, 0);
        p.link(parent, f, cell);
        frontier.push_back(cell);
        ++made;
      } else {
        const std::uint32_t atom = p.add(0, 1);
        p.link(parent, f, atom);
        ++made;
      }
    }
  }
  return p;
}

/// cup — parser tables: a very wide, shallow graph. Scanning the spine
/// floods the worklist with far more gray objects than the 32k-entry
/// header FIFO can hold; the resulting overflow misses stretch the scan
/// critical section (Table II: 10.5 % scan-lock, 38.6 % header-load).
GraphPlan plan_cup(double scale, std::uint64_t seed) {
  GraphPlan p;
  Rng rng(seed);
  // Part 1: the bulk of the parser's data — a deep forest of production
  // chains that provides most of the collection work at healthy
  // parallelism.
  const std::uint32_t chains = scaled(scale, 2'600, 4);
  const std::uint32_t chain_len = 28;
  std::vector<std::uint32_t> chain_heads;
  chain_heads.reserve(chains);
  for (std::uint32_t c = 0; c < chains; ++c) {
    std::uint32_t prev = 0;
    for (std::uint32_t i = 0; i < chain_len; ++i) {
      const std::uint32_t node = p.add(2, 2);
      const std::uint32_t leaf = p.add(0, 1);
      p.link(node, 1, leaf);
      if (i == 0) {
        chain_heads.push_back(node);
      } else {
        p.link(prev, 0, node);
      }
      prev = node;
    }
  }
  attach_rooted_array(p, chain_heads);
  // Part 2: the parse tables — a large *bushy* tree of tiny entries.
  // While every core is busy scanning interior nodes, each scan produces
  // ~3 evacuations but only one fetch, so the gray population balloons
  // past the 32k-entry header FIFO. The lost headers must then be re-read
  // from memory *inside* the scan critical section: Table II's 10 %
  // scan-lock / high header-load stalls. The tree size is deliberately
  // INDEPENDENT of `scale`: the FIFO is a fixed hardware resource and
  // cup's tables a fixed artifact of its grammar.
  const std::uint32_t table_nodes = 80'000;
  const std::uint32_t table_root = p.add(3, 0);
  p.add_root(table_root);
  std::vector<std::uint32_t> frontier{table_root};
  std::size_t next = 0;
  for (std::uint32_t made = 1; made < table_nodes;) {
    const std::uint32_t parent = frontier[next++];
    for (Word f = 0; f < 3 && made < table_nodes; ++f, ++made) {
      if (rng.chance(0.8)) {
        const std::uint32_t entry = p.add(3, 0);
        p.link(parent, f, entry);
        frontier.push_back(entry);
      } else {
        p.link(parent, f, p.add(0, 1));
      }
    }
  }
  return p;
}

}  // namespace

GraphPlan make_benchmark_plan(BenchmarkId id, double scale,
                              std::uint64_t seed) {
  if (const std::string e = scale_error(scale); !e.empty()) {
    throw std::invalid_argument("scale " + e);
  }
  switch (id) {
    case BenchmarkId::kCompress: return plan_compress(scale, seed);
    case BenchmarkId::kCup: return plan_cup(scale, seed);
    case BenchmarkId::kDb: return plan_db(scale, seed);
    case BenchmarkId::kJavac: return plan_javac(scale, seed);
    case BenchmarkId::kJavacc: return plan_javacc(scale, seed);
    case BenchmarkId::kJflex: return plan_jflex(scale, seed);
    case BenchmarkId::kJlisp: return plan_jlisp(scale, seed);
    case BenchmarkId::kSearch: return plan_search(scale, seed);
  }
  throw std::invalid_argument("unknown benchmark id");
}

Workload make_benchmark(BenchmarkId id, double scale, std::uint64_t seed) {
  return materialize(make_benchmark_plan(id, scale, seed));
}

}  // namespace hwgc
