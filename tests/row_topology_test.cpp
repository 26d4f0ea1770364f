#include <gtest/gtest.h>

#include "topo/builders.hpp"
#include "topo/row_topology.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace xlp::topo {
namespace {

TEST(RowLink, BasicProperties) {
  constexpr RowLink local{3, 4};
  constexpr RowLink express{1, 5};
  EXPECT_EQ(local.length(), 1);
  EXPECT_FALSE(local.is_express());
  EXPECT_EQ(express.length(), 4);
  EXPECT_TRUE(express.is_express());
}

TEST(RowLink, CrossesTheCutsItSpans) {
  constexpr RowLink link{2, 5};
  EXPECT_FALSE(link.crosses(1));
  EXPECT_TRUE(link.crosses(2));
  EXPECT_TRUE(link.crosses(3));
  EXPECT_TRUE(link.crosses(4));
  EXPECT_FALSE(link.crosses(5));
}

TEST(RowTopology, RejectsDegenerateRows) {
  EXPECT_THROW(RowTopology(1), PreconditionError);
  EXPECT_THROW(RowTopology(0), PreconditionError);
  EXPECT_NO_THROW(RowTopology(2));
}

TEST(RowTopology, RejectsInvalidLinks) {
  EXPECT_THROW(RowTopology(4, {{0, 1}}), PreconditionError);  // local
  EXPECT_THROW(RowTopology(4, {{0, 4}}), PreconditionError);  // out of range
  EXPECT_THROW(RowTopology(4, {{-1, 2}}), PreconditionError);
  EXPECT_NO_THROW(RowTopology(4, {{0, 2}}));
}

TEST(RowTopology, PlainRowHasUnitCuts) {
  const RowTopology row(8);
  EXPECT_TRUE(row.express_links().empty());
  for (int cut = 0; cut < 7; ++cut) EXPECT_EQ(row.cut_count(cut), 1);
  EXPECT_EQ(row.max_cut_count(), 1);
  EXPECT_TRUE(row.fits_link_limit(1));
}

TEST(RowTopology, AllLinksIncludesLocals) {
  const RowTopology row(4, {{0, 2}});
  const auto links = row.all_links();
  ASSERT_EQ(links.size(), 4u);  // 3 local + 1 express
  EXPECT_EQ(links[0], (RowLink{0, 1}));
  EXPECT_EQ(links[1], (RowLink{0, 2}));
  EXPECT_EQ(links[2], (RowLink{1, 2}));
  EXPECT_EQ(links[3], (RowLink{2, 3}));
}

TEST(RowTopology, CutCountsAccumulateOverlaps) {
  // Figure 1 of the paper: row of 8 with express links (1,3), (3,7), (4,6)
  // in 0-based coordinates gives cross-section counts 1,2,2,2,3,3,2... we
  // use a simpler hand-checked case here.
  const RowTopology row(8, {{0, 3}, {2, 5}});
  const auto counts = row.cut_counts();
  ASSERT_EQ(counts.size(), 7u);
  EXPECT_EQ(counts[0], 2);  // local + (0,3)
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 3);  // local + both express links
  EXPECT_EQ(counts[3], 2);
  EXPECT_EQ(counts[4], 2);
  EXPECT_EQ(counts[5], 1);
  EXPECT_EQ(counts[6], 1);
  EXPECT_EQ(row.max_cut_count(), 3);
  EXPECT_FALSE(row.fits_link_limit(2));
  EXPECT_TRUE(row.fits_link_limit(3));
}

TEST(RowTopology, DuplicateLinksBothCountTowardCuts) {
  RowTopology row(6, {{1, 4}, {1, 4}});
  EXPECT_EQ(row.cut_count(2), 3);  // local + two parallel copies
  EXPECT_TRUE(row.remove_express({1, 4}));
  EXPECT_EQ(row.cut_count(2), 2);
  EXPECT_TRUE(row.remove_express({1, 4}));
  EXPECT_FALSE(row.remove_express({1, 4}));
}

TEST(RowTopology, NeighborsAreSortedAndDeduped) {
  const RowTopology row(8, {{2, 5}, {2, 7}, {0, 2}});
  EXPECT_EQ(row.neighbors_right(2), (std::vector<int>{3, 5, 7}));
  EXPECT_EQ(row.neighbors_left(2), (std::vector<int>{0, 1}));
  EXPECT_EQ(row.neighbors_right(7), (std::vector<int>{}));
  EXPECT_EQ(row.neighbors_left(0), (std::vector<int>{}));
}

TEST(RowTopology, DegreeCountsBothDirections) {
  const RowTopology row(8, {{2, 5}, {2, 7}, {0, 2}});
  // Router 2: locals to 1 and 3, express to 5, 7 and 0.
  EXPECT_EQ(row.degree(2), 5);
  EXPECT_EQ(row.degree(0), 2);  // local to 1, express to 2
  EXPECT_EQ(row.degree(7), 2);  // local to 6, express from 2
}

TEST(RowTopology, AverageDegreeOfPlainRow) {
  const RowTopology row(8);
  // End routers have degree 1, interior degree 2: (2*1 + 6*2) / 8.
  EXPECT_DOUBLE_EQ(row.average_degree(), 14.0 / 8.0);
}

TEST(RowTopology, MirroredPreservesStructure) {
  const RowTopology row(8, {{0, 2}, {3, 7}});
  const RowTopology mirrored = row.mirrored();
  EXPECT_EQ(mirrored.express_links(),
            (std::vector<RowLink>{{0, 4}, {5, 7}}));
  EXPECT_EQ(mirrored.mirrored(), row);
  EXPECT_EQ(mirrored.max_cut_count(), row.max_cut_count());
}

TEST(RowTopology, ToStringRoundTripsVisually) {
  const RowTopology row(8, {{0, 2}, {3, 7}});
  EXPECT_EQ(row.to_string(), "8:[(0,2)(3,7)]");
}

TEST(FullLinkLimit, MatchesEquationFour) {
  EXPECT_EQ(full_link_limit(4), 4);    // paper: C_full = 4 for 4x4
  EXPECT_EQ(full_link_limit(8), 16);   // paper: C_full = 16 for 8x8
  EXPECT_EQ(full_link_limit(16), 64);
  EXPECT_EQ(full_link_limit(2), 1);
  EXPECT_EQ(full_link_limit(5), 6);  // odd row: floor * ceil halves
}

TEST(FullLinkLimit, IsTheMaxCutOfTheClique) {
  for (int n : {2, 3, 4, 5, 6, 7, 8, 12, 16}) {
    const RowTopology clique = make_flattened_butterfly_row(n);
    EXPECT_EQ(clique.max_cut_count(), full_link_limit(n)) << "n=" << n;
  }
}

TEST(ValidLinkLimits, PaperExamples) {
  EXPECT_EQ(valid_link_limits(4), (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(valid_link_limits(8), (std::vector<int>{1, 2, 4, 8, 16}));
  EXPECT_EQ(valid_link_limits(16),
            (std::vector<int>{1, 2, 4, 8, 16, 32, 64}));
}

TEST(Builders, PlainRow) {
  EXPECT_TRUE(make_plain_row(8).express_links().empty());
}

TEST(Builders, FlattenedButterflyRowIsFullyConnected) {
  const RowTopology fb = make_flattened_butterfly_row(4);
  EXPECT_EQ(fb.express_links().size(), 3u);  // (0,2),(0,3),(1,3)
  for (int i = 0; i < 4; ++i)
    for (int j = i + 1; j < 4; ++j) {
      const auto right = fb.neighbors_right(i);
      EXPECT_NE(std::find(right.begin(), right.end(), j), right.end());
    }
}

TEST(Builders, HfbRowSplitsIntoTwoCliques) {
  const RowTopology hfb = make_hfb_row(8);
  // Within each half of 4 there are 3 express links; none cross the middle.
  EXPECT_EQ(hfb.express_links().size(), 6u);
  for (const RowLink& link : hfb.express_links())
    EXPECT_TRUE(link.hi <= 3 || link.lo >= 4)
        << "link crosses the quadrant boundary";
  // The middle cut carries only the local link (the HFB bottleneck that
  // Section 5.4 blames for its throughput).
  EXPECT_EQ(hfb.cut_count(3), 1);
  EXPECT_EQ(hfb.max_cut_count(), 4);
}

TEST(Builders, HfbOf4DegeneratesToFlattenedButterfly) {
  EXPECT_EQ(make_hfb_row(4), make_flattened_butterfly_row(4));
}

TEST(Builders, HfbRejectsOddRows) {
  EXPECT_THROW(make_hfb_row(5), PreconditionError);
}

TEST(Builders, FlitBitsForLimit) {
  EXPECT_EQ(flit_bits_for_limit(1), 256);
  EXPECT_EQ(flit_bits_for_limit(2), 128);
  EXPECT_EQ(flit_bits_for_limit(4), 64);
  EXPECT_EQ(flit_bits_for_limit(16), 16);
  EXPECT_THROW(flit_bits_for_limit(3), PreconditionError);
  EXPECT_THROW(flit_bits_for_limit(0), PreconditionError);
}

TEST(Builders, MeshDesignPoint) {
  const ExpressMesh mesh = make_mesh(8);
  EXPECT_EQ(mesh.side(), 8);
  EXPECT_EQ(mesh.link_limit(), 1);
  EXPECT_EQ(mesh.flit_bits(), 256);
  EXPECT_EQ(mesh.max_cut_count(), 1);
  EXPECT_TRUE(mesh.is_feasible());
}

TEST(Builders, HfbDesignPoint) {
  const ExpressMesh hfb = make_hfb(8);
  EXPECT_EQ(hfb.link_limit(), 4);
  EXPECT_EQ(hfb.flit_bits(), 64);
  EXPECT_TRUE(hfb.is_feasible());
}

TEST(Builders, FlattenedButterflyDesignPoint) {
  const ExpressMesh fb = make_flattened_butterfly(4);
  EXPECT_EQ(fb.link_limit(), 4);
  EXPECT_EQ(fb.flit_bits(), 64);
}

TEST(Builders, MakeDesignValidatesFit) {
  const RowTopology row(8, {{0, 4}, {2, 6}});  // max cut 3
  EXPECT_NO_THROW(make_design(row, 4));
  EXPECT_THROW(make_design(row, 2), PreconditionError);
}

TEST(ExpressMesh, CoordinateMapping) {
  const ExpressMesh mesh = make_mesh(8);
  EXPECT_EQ(mesh.node_id({3, 2}), 19);
  EXPECT_EQ(mesh.coord(19), (Coord{3, 2}));
  EXPECT_EQ(mesh.node_count(), 64);
  EXPECT_THROW(mesh.coord(64), PreconditionError);
  EXPECT_THROW(mesh.node_id({8, 0}), PreconditionError);
}

TEST(ExpressMesh, RouterPortsIncludeNi) {
  const ExpressMesh mesh = make_mesh(8);
  EXPECT_EQ(mesh.router_ports({0, 0}), 3);   // 2 neighbors + NI
  EXPECT_EQ(mesh.router_ports({3, 3}), 5);   // 4 neighbors + NI
  EXPECT_EQ(mesh.router_ports({0, 3}), 4);
}

TEST(ExpressMesh, RowPortCountGrowsSubLinearlyInC) {
  // Section 4.6's argument: for the paper's best P̄(8,4) placement
  // (0-based express links (1,3) and (3,7)), no router reaches the
  // theoretical maximum of C*k_m = 8 within-row ports; total row ports stay
  // far below the clique's.
  const RowTopology row(8, {{1, 3}, {3, 7}});
  int total = 0, max_degree = 0;
  for (int r = 0; r < 8; ++r) {
    total += row.degree(r);
    max_degree = std::max(max_degree, row.degree(r));
  }
  EXPECT_EQ(total, 2 * (7 + 2));  // 7 local + 2 express, both endpoints
  EXPECT_LT(max_degree, 8);
  EXPECT_LT(row.average_degree(),
            make_flattened_butterfly_row(8).average_degree());
}

TEST(ExpressMesh, HeterogeneousConstructionValidatesShapes) {
  std::vector<RowTopology> rows(4, RowTopology(4));
  std::vector<RowTopology> cols(4, RowTopology(4));
  EXPECT_NO_THROW(ExpressMesh(rows, cols, 1, 256));
  std::vector<RowTopology> bad_rows(3, RowTopology(4));
  EXPECT_THROW(ExpressMesh(bad_rows, cols, 1, 256), PreconditionError);
  std::vector<RowTopology> wrong_size(4, RowTopology(5));
  EXPECT_THROW(ExpressMesh(wrong_size, cols, 1, 256), PreconditionError);
}

TEST(ExpressMesh, WireUnitsAndLinkCount) {
  const ExpressMesh mesh = make_mesh(4);
  // 4 rows * 3 local + 4 cols * 3 local = 24 links, each of length 1.
  EXPECT_EQ(mesh.total_link_count(), 24);
  EXPECT_EQ(mesh.total_wire_units(), 24);

  const RowTopology row(4, {{0, 3}});
  const ExpressMesh express(row, 2, 128);
  EXPECT_EQ(express.total_link_count(), 24 + 8);
  EXPECT_EQ(express.total_wire_units(), 24 + 8 * 3);
}

TEST(Links, ParseAndFormatRoundTrip) {
  EXPECT_TRUE(parse_links("").empty());
  EXPECT_TRUE(parse_links("none").empty());
  const std::vector<RowLink> links = parse_links("3-7,1-3");
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0], (RowLink{3, 7}));
  const RowTopology row(8, links);
  EXPECT_EQ(format_links(row), "1-3,3-7");  // sorted, like the row
  EXPECT_EQ(parse_links(format_links(row)), row.express_links());
  EXPECT_EQ(format_links(RowTopology(8)), "");
}

TEST(Links, ParseIsStrict) {
  for (const char* bad : {"1", "1-", "-3", "1-3x", " 1-3", "a-b", "1-3,,2-4"})
    EXPECT_THROW((void)parse_links(bad), Error) << bad;
}

}  // namespace
}  // namespace xlp::topo
