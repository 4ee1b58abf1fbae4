/** @file Tests for indirect call promotion. */
#include <gtest/gtest.h>

#include <algorithm>

#include "ir/builder.h"
#include "opt/icp.h"
#include "tests/test_util.h"
#include "uarch/simulator.h"

namespace pibe {
namespace {

using ir::BinKind;
using ir::FunctionBuilder;
using ir::Module;
using ir::Opcode;

/**
 * dispatcher(sel, x): indirect call through table[sel] with three
 * possible targets returning distinct transforms of x.
 */
struct DispatchModule
{
    Module m;
    ir::FuncId dispatcher;
    ir::FuncId t0, t1, t2;
    ir::SiteId site;
};

DispatchModule
makeDispatchModule(bool asm_site = false)
{
    DispatchModule d;
    d.t0 = d.m.addFunction("t0", 1);
    d.t1 = d.m.addFunction("t1", 1);
    d.t2 = d.m.addFunction("t2", 1);
    {
        FunctionBuilder b(d.m, d.t0);
        b.ret(b.binImm(BinKind::kAdd, b.param(0), 10));
    }
    {
        FunctionBuilder b(d.m, d.t1);
        b.ret(b.binImm(BinKind::kMul, b.param(0), 2));
    }
    {
        FunctionBuilder b(d.m, d.t2);
        b.ret(b.binImm(BinKind::kXor, b.param(0), 0xff));
    }
    d.m.addGlobal("table", {ir::funcAddrValue(d.t0),
                            ir::funcAddrValue(d.t1),
                            ir::funcAddrValue(d.t2)});
    d.dispatcher = d.m.addFunction("dispatcher", 2);
    FunctionBuilder b(d.m, d.dispatcher);
    ir::Reg sel = b.binImm(BinKind::kAnd, b.param(0), 3);
    ir::Reg capped = b.binImm(BinKind::kRem, sel, 3);
    ir::Reg target = b.load(0, capped, 0);
    ir::Reg r = b.icall(target, {b.param(1)}, asm_site);
    d.site = d.m.func(d.dispatcher)
                 .blocks[0]
                 .insts[d.m.func(d.dispatcher).blocks[0].insts.size() - 1]
                 .site_id;
    b.ret(r);
    return d;
}

size_t
countOpcode(const ir::Function& f, Opcode op)
{
    size_t n = 0;
    for (const auto& bb : f.blocks) {
        for (const auto& inst : bb.insts)
            n += (inst.op == op);
    }
    return n;
}

std::vector<std::vector<int64_t>>
dispatchArgs()
{
    std::vector<std::vector<int64_t>> calls;
    for (int64_t sel = 0; sel < 3; ++sel) {
        for (int64_t x : {0, 5, 100, -3})
            calls.push_back({sel, x});
    }
    return calls;
}

TEST(Icp, PromotesProfiledTargetsAndPreservesSemantics)
{
    DispatchModule d = makeDispatchModule();
    auto before = test::runScript(d.m, d.dispatcher, dispatchArgs());

    profile::EdgeProfile p;
    p.addIndirect(d.site, d.t1, 900);
    p.addIndirect(d.site, d.t0, 90);
    auto audit = opt::runIcp(d.m, p, {});
    EXPECT_EQ(audit.promoted_sites, 1u);
    EXPECT_EQ(audit.promoted_targets, 2u);
    EXPECT_EQ(audit.promoted_weight, 990u);
    EXPECT_EQ(audit.total_icall_sites, 1u);
    EXPECT_TRUE(test::verifies(d.m));

    // Direct calls now guard the indirect fallback.
    EXPECT_EQ(countOpcode(d.m.func(d.dispatcher), Opcode::kCall), 2u);
    EXPECT_EQ(countOpcode(d.m.func(d.dispatcher), Opcode::kICall), 1u);

    // Unprofiled target t2 still reaches through the fallback.
    EXPECT_EQ(test::runScript(d.m, d.dispatcher, dispatchArgs()),
              before);
}

TEST(Icp, HottestTargetIsCheckedFirst)
{
    DispatchModule d = makeDispatchModule();
    profile::EdgeProfile p;
    p.addIndirect(d.site, d.t2, 50);
    p.addIndirect(d.site, d.t1, 5000);
    opt::runIcp(d.m, p, {});
    // The first guarded direct call in layout order targets t1.
    const ir::Function& f = d.m.func(d.dispatcher);
    ir::FuncId first_direct = ir::kInvalidFunc;
    for (const auto& bb : f.blocks) {
        for (const auto& inst : bb.insts) {
            if (inst.op == Opcode::kCall) {
                first_direct = inst.callee;
                break;
            }
        }
        if (first_direct != ir::kInvalidFunc)
            break;
    }
    EXPECT_EQ(first_direct, d.t1);
}

TEST(Icp, BudgetLimitsPromotion)
{
    DispatchModule d = makeDispatchModule();
    profile::EdgeProfile p;
    p.addIndirect(d.site, d.t1, 900);
    p.addIndirect(d.site, d.t0, 10);
    opt::IcpConfig cfg;
    cfg.budget = 0.9; // only the hottest pair fits
    auto audit = opt::runIcp(d.m, p, cfg);
    EXPECT_EQ(audit.promoted_targets, 1u);
    EXPECT_EQ(audit.promoted_weight, 900u);
}

TEST(Icp, ZeroBudgetPromotesNothing)
{
    DispatchModule d = makeDispatchModule();
    profile::EdgeProfile p;
    p.addIndirect(d.site, d.t1, 900);
    opt::IcpConfig cfg;
    cfg.budget = 0.0;
    auto audit = opt::runIcp(d.m, p, cfg);
    EXPECT_EQ(audit.promoted_sites, 0u);
    EXPECT_EQ(countOpcode(d.m.func(d.dispatcher), Opcode::kCall), 0u);
}

TEST(Icp, UpdatesProfileEdges)
{
    DispatchModule d = makeDispatchModule();
    profile::EdgeProfile p;
    p.addIndirect(d.site, d.t1, 900);
    p.addIndirect(d.site, d.t0, 90);
    opt::runIcp(d.m, p, {});
    // Promoted weight moved from the indirect site to direct edges.
    EXPECT_EQ(p.indirectCount(d.site), 0u);
    EXPECT_EQ(p.totalDirectWeight(), 990u);
}

TEST(Icp, AsmSitesAreUntouchable)
{
    DispatchModule d = makeDispatchModule(/*asm_site=*/true);
    profile::EdgeProfile p;
    p.addIndirect(d.site, d.t1, 900);
    auto audit = opt::runIcp(d.m, p, {});
    EXPECT_EQ(audit.promoted_sites, 0u);
    EXPECT_EQ(audit.candidate_sites, 0u);
    EXPECT_EQ(countOpcode(d.m.func(d.dispatcher), Opcode::kCall), 0u);
}

TEST(Icp, SkipsArityMismatchedTargets)
{
    DispatchModule d = makeDispatchModule();
    // A bogus profile entry claiming a 2-parameter function was called
    // through a 1-argument site must not be promoted.
    ir::FuncId wrong = d.m.addFunction("wrong_arity", 2);
    {
        FunctionBuilder b(d.m, wrong);
        b.ret(b.param(0));
    }
    profile::EdgeProfile p;
    p.addIndirect(d.site, wrong, 5000);
    p.addIndirect(d.site, d.t1, 100);
    auto audit = opt::runIcp(d.m, p, {});
    EXPECT_EQ(audit.promoted_targets, 1u);
    for (const auto& bb : d.m.func(d.dispatcher).blocks) {
        for (const auto& inst : bb.insts) {
            if (inst.op == Opcode::kCall) {
                EXPECT_NE(inst.callee, wrong);
            }
        }
    }
}

TEST(Icp, MaxTargetsPerSiteCap)
{
    DispatchModule d = makeDispatchModule();
    profile::EdgeProfile p;
    p.addIndirect(d.site, d.t0, 300);
    p.addIndirect(d.site, d.t1, 200);
    p.addIndirect(d.site, d.t2, 100);
    opt::IcpConfig cfg;
    cfg.max_targets_per_site = 2;
    auto audit = opt::runIcp(d.m, p, cfg);
    EXPECT_EQ(audit.promoted_targets, 2u);
    // The truncated site keeps a live fallback icall: residual
    // surface the coverage accounting must see.
    EXPECT_EQ(audit.capped_sites, 1u);
    EXPECT_EQ(countOpcode(d.m.func(d.dispatcher), Opcode::kICall), 1u);
}

/** FeasibilityMap asserting the dispatch site's complete 3-target set. */
opt::FeasibilityMap
dispatchFeasibility(const DispatchModule& d, bool complete = true)
{
    opt::FeasibilityMap fm;
    opt::SiteFeasibility sf;
    sf.complete = complete;
    sf.targets = {d.t0, d.t1, d.t2};
    std::sort(sf.targets.begin(), sf.targets.end());
    fm.emplace(d.site, std::move(sf));
    return fm;
}

TEST(Icp, TotalPromotionDropsFallback)
{
    DispatchModule d = makeDispatchModule();
    auto before = test::runScript(d.m, d.dispatcher, dispatchArgs());
    profile::EdgeProfile p;
    p.addIndirect(d.site, d.t0, 300);
    p.addIndirect(d.site, d.t1, 200);
    p.addIndirect(d.site, d.t2, 100);
    opt::FeasibilityMap fm = dispatchFeasibility(d);
    opt::IcpConfig cfg;
    cfg.feasibility = &fm;
    cfg.total_promotion = true;
    auto audit = opt::runIcp(d.m, p, cfg);
    EXPECT_EQ(audit.total_safe_sites, 1u);
    EXPECT_EQ(audit.fallbacks_dropped, 1u);
    EXPECT_EQ(countOpcode(d.m.func(d.dispatcher), Opcode::kICall), 0u)
        << "the indirect branch must be gone";
    EXPECT_TRUE(test::verifies(d.m));
    EXPECT_EQ(before, test::runScript(d.m, d.dispatcher, dispatchArgs()));
    // All weight drained onto direct edges: nothing indirect left.
    EXPECT_EQ(p.indirectCount(d.site), 0u);
    EXPECT_EQ(audit.promoted_weight, audit.total_weight);
}

TEST(Icp, TotalPromotionCoversUnprofiledTargets)
{
    DispatchModule d = makeDispatchModule();
    auto before = test::runScript(d.m, d.dispatcher, dispatchArgs());
    profile::EdgeProfile p;
    p.addIndirect(d.site, d.t0, 1000); // t1/t2 never observed
    opt::FeasibilityMap fm = dispatchFeasibility(d);
    opt::IcpConfig cfg;
    cfg.feasibility = &fm;
    cfg.total_promotion = true;
    auto audit = opt::runIcp(d.m, p, cfg);
    EXPECT_EQ(audit.fallbacks_dropped, 1u);
    EXPECT_EQ(countOpcode(d.m.func(d.dispatcher), Opcode::kICall), 0u);
    // Semantics hold for the *unprofiled* selectors too: the appended
    // feasible targets cover them.
    EXPECT_EQ(before, test::runScript(d.m, d.dispatcher, dispatchArgs()));
}

TEST(Icp, TotalPromotionUnsafeWhenIncomplete)
{
    DispatchModule d = makeDispatchModule();
    profile::EdgeProfile p;
    p.addIndirect(d.site, d.t0, 300);
    opt::FeasibilityMap fm = dispatchFeasibility(d, /*complete=*/false);
    opt::IcpConfig cfg;
    cfg.feasibility = &fm;
    cfg.total_promotion = true;
    auto audit = opt::runIcp(d.m, p, cfg);
    EXPECT_EQ(audit.total_safe_sites, 0u);
    EXPECT_EQ(audit.fallbacks_dropped, 0u);
    EXPECT_EQ(countOpcode(d.m.func(d.dispatcher), Opcode::kICall), 1u)
        << "an incomplete set must keep the fallback";
}

TEST(Icp, TotalPromotionRespectsMaxTargets)
{
    DispatchModule d = makeDispatchModule();
    profile::EdgeProfile p;
    p.addIndirect(d.site, d.t0, 300);
    opt::FeasibilityMap fm = dispatchFeasibility(d);
    opt::IcpConfig cfg;
    cfg.feasibility = &fm;
    cfg.total_promotion = true;
    cfg.total_promotion_max_targets = 2; // feasible set has 3
    auto audit = opt::runIcp(d.m, p, cfg);
    EXPECT_EQ(audit.total_safe_sites, 0u);
    EXPECT_EQ(audit.fallbacks_dropped, 0u);
    EXPECT_EQ(countOpcode(d.m.func(d.dispatcher), Opcode::kICall), 1u);
}

TEST(Icp, PerSiteCapWinsOverTotalPromotion)
{
    DispatchModule d = makeDispatchModule();
    profile::EdgeProfile p;
    p.addIndirect(d.site, d.t0, 300);
    p.addIndirect(d.site, d.t1, 200);
    p.addIndirect(d.site, d.t2, 100);
    opt::FeasibilityMap fm = dispatchFeasibility(d);
    opt::IcpConfig cfg;
    cfg.feasibility = &fm;
    cfg.total_promotion = true;
    cfg.max_targets_per_site = 2; // cannot cover all 3 feasible
    auto audit = opt::runIcp(d.m, p, cfg);
    EXPECT_EQ(audit.fallbacks_dropped, 0u);
    EXPECT_EQ(audit.capped_sites, 1u);
    EXPECT_EQ(countOpcode(d.m.func(d.dispatcher), Opcode::kICall), 1u);
}

/** Property: ICP preserves semantics on random icall-bearing modules. */
class IcpProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(IcpProperty, PreservesSemantics)
{
    test::GenConfig g;
    g.seed = GetParam();
    g.with_icalls = true;
    Module m = test::generateModule(g);
    ir::FuncId main = test::generatedMain(m);
    auto before = test::runScript(m, main, test::argMatrix());

    profile::EdgeProfile p;
    {
        uarch::Simulator sim(m);
        sim.setTimingEnabled(false);
        sim.setProfiler(&p);
        for (const auto& args : test::argMatrix())
            sim.run(main, args);
    }
    auto audit = opt::runIcp(m, p, {});
    (void)audit;
    ASSERT_TRUE(test::verifies(m));
    EXPECT_EQ(test::runScript(m, main, test::argMatrix()), before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IcpProperty,
                         ::testing::Range<uint64_t>(1, 16));

} // namespace
} // namespace pibe
