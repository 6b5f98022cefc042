// Experiment Fig4: the data structure of Figure 4 -- the Bentley-Yao B1
// left subtree (leaf v at depth O(log v)) vs the complete right subtree
// (every leaf at depth ceil(log2 N)), the two regimes behind Theorem 6.
#include <cstdint>
#include <iostream>

#include "ruco/core/table.h"
#include "ruco/util/bits.h"
#include "ruco/util/tree_shape.h"

int main() {
  std::cout << "# Fig 4: tree shape -- B1 value leaves vs complete process "
               "leaves\n\n";
  constexpr std::uint32_t kN = 4096;
  const ruco::util::TreeShape shape = ruco::util::algorithm_a_shape(kN);

  std::cout << "## B1 leaf depth vs value v (N = " << kN
            << ")  [paper: O(log v)]\n\n";
  ruco::Table t{{"v", "depth(value leaf)", "2*log2(v+1)+3 bound"}};
  for (const std::uint64_t v :
       {0ull, 1ull, 2ull, 3ull, 7ull, 15ull, 63ull, 255ull, 1023ull,
        4095ull}) {
    t.add(v, shape.depth(shape.leaf(static_cast<std::uint32_t>(v))),
          2 * ruco::util::floor_log2(v + 1) + 3);
  }
  t.print();

  std::cout << "\n## Process leaf depth (right subtree)  [paper: O(log N), "
               "uniform]\n\n";
  ruco::Table p{{"process i", "depth(process leaf)", "ceil(log2 N)+1"}};
  for (const std::uint32_t i : {0u, 1u, 2047u, 4095u}) {
    p.add(i, shape.depth(shape.leaf(kN + i)),
          ruco::util::ceil_log2(kN) + 1);
  }
  p.print();

  std::cout << "\n## Node count vs N (4N-1 total: 2N-1 per subtree + root)\n\n";
  ruco::Table c{{"N", "nodes", "4N-1"}};
  for (const std::uint32_t n : {4u, 64u, 1024u, 16384u}) {
    const ruco::util::TreeShape s = ruco::util::algorithm_a_shape(n);
    c.add(n, s.node_count(), 4ull * n - 1);
  }
  c.print();
  std::cout << "\nShape check: value-leaf depth tracks 2 log2(v) regardless "
               "of N; process leaves sit uniformly at log2(N); Figure 4's "
               "N=4 instance is the first row block.\n";
  return 0;
}
