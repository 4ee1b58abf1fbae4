/**
 * @file
 * Tests for the src/check static-analysis framework and audit suite:
 * CFG/dataflow analyses, the AnalysisManager cache, the four
 * checker groups (expect-style: known-bad snippets must yield exact
 * diagnostic ids at exact locations; known-good modules must be
 * finding-free), the extended verifier, and the pipeline pass
 * sandwich.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "check/analysis_manager.h"
#include "check/cfg.h"
#include "check/checks.h"
#include "check/dataflow.h"
#include "check/sandwich.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "kernel/kernel.h"
#include "pibe/pipeline.h"
#include "runtime/thread_pool.h"
#include "tests/test_util.h"
#include "uarch/simulator.h"

namespace pibe {
namespace {

using check::AnalysisManager;
using check::CheckOptions;
using check::CheckReport;
using check::Diagnostic;
using check::Severity;
using ir::BinKind;

/** Diagnostics matching `id`, in emission order. */
std::vector<const Diagnostic*>
withId(const CheckReport& report, const std::string& id)
{
    std::vector<const Diagnostic*> out;
    for (const Diagnostic& d : report.diags)
        if (d.check_id == id)
            out.push_back(&d);
    return out;
}

/** A diamond: bb0 -> (bb1|bb2) -> bb3, plus an unreachable bb4. */
ir::Module
diamondModule()
{
    ir::Module m;
    ir::FuncId f = m.addFunction("diamond", 1);
    ir::FunctionBuilder b(m, f);
    ir::BlockId left = b.newBlock();
    ir::BlockId right = b.newBlock();
    ir::BlockId join = b.newBlock();
    ir::BlockId orphan = b.newBlock();
    b.condBr(b.param(0), left, right);
    b.setBlock(left);
    ir::Reg one = b.constI(1);
    b.br(join);
    b.setBlock(right);
    ir::Reg two = b.constI(2);
    b.br(join);
    b.setBlock(join);
    b.ret(b.bin(BinKind::kAdd, one, two));
    b.setBlock(orphan);
    b.ret(b.constI(9));
    return m;
}

TEST(Cfg, DiamondEdgesReachabilityRpo)
{
    ir::Module m = diamondModule();
    check::Cfg cfg(m.func(0));

    EXPECT_EQ(cfg.succs(0), (std::vector<ir::BlockId>{1, 2}));
    EXPECT_EQ(cfg.preds(3), (std::vector<ir::BlockId>{1, 2}));
    EXPECT_TRUE(cfg.isReachable(3));
    EXPECT_FALSE(cfg.isReachable(4));
    EXPECT_EQ(cfg.numReachable(), 4u);

    const auto& rpo = cfg.reversePostOrder();
    ASSERT_EQ(rpo.size(), 4u);
    EXPECT_EQ(rpo.front(), 0u);
    EXPECT_EQ(rpo.back(), 3u);
    EXPECT_EQ(cfg.rpoIndex(4), SIZE_MAX);
    for (ir::BlockId b = 0; b < 5; ++b)
        EXPECT_FALSE(cfg.inCycle(b));
}

TEST(Cfg, LoopBlocksAreInCycle)
{
    ir::Module m;
    ir::FuncId f = m.addFunction("loop", 1);
    ir::FunctionBuilder b(m, f);
    ir::BlockId head = b.newBlock();
    ir::BlockId body = b.newBlock();
    ir::BlockId exit = b.newBlock();
    ir::Reg i = b.constI(0);
    b.br(head);
    b.setBlock(head);
    ir::Reg cond = b.bin(BinKind::kLt, i, b.param(0));
    b.condBr(cond, body, exit);
    b.setBlock(body);
    b.setRegBin(i, BinKind::kAdd, i, b.constI(1));
    b.br(head);
    b.setBlock(exit);
    b.ret(i);

    check::Cfg cfg(m.func(f));
    EXPECT_FALSE(cfg.inCycle(0));
    EXPECT_TRUE(cfg.inCycle(head));
    EXPECT_TRUE(cfg.inCycle(body));
    EXPECT_FALSE(cfg.inCycle(exit));
}

TEST(Dataflow, LivenessAcrossDiamond)
{
    ir::Module m = diamondModule();
    const ir::Function& f = m.func(0);
    check::Cfg cfg(f);
    check::Liveness live(f, cfg);

    // `one` (defined in bb1) and `two` (defined in bb2) are both live
    // into the join; the param is live into the entry only.
    const ir::Reg one = f.blocks[1].insts[0].dst;
    const ir::Reg two = f.blocks[2].insts[0].dst;
    EXPECT_TRUE(live.liveIn(3).test(one));
    EXPECT_TRUE(live.liveIn(3).test(two));
    EXPECT_TRUE(live.liveIn(0).test(0));
    EXPECT_FALSE(live.liveOut(3).count());
}

TEST(Dataflow, ReachingDefsAndDefiniteAssignment)
{
    // r is assigned on only one path; s on both.
    ir::Module m;
    ir::FuncId fid = m.addFunction("partial", 1);
    ir::FunctionBuilder b(m, fid);
    ir::BlockId then = b.newBlock();
    ir::BlockId other = b.newBlock();
    ir::BlockId join = b.newBlock();
    ir::Reg r = b.newReg();
    ir::Reg s = b.newReg();
    b.condBr(b.param(0), then, other);
    b.setBlock(then);
    b.setRegConst(r, 1);
    b.setRegConst(s, 2);
    b.br(join);
    b.setBlock(other);
    b.setRegConst(s, 3);
    b.br(join);
    b.setBlock(join);
    b.ret(s);

    const ir::Function& f = m.func(fid);
    check::Cfg cfg(f);
    check::ReachingDefs rd(f, cfg);
    check::DefiniteAssignment da(f, cfg);

    // Two defs of s reach the join's ret; one def of r.
    EXPECT_EQ(rd.defsOfRegAt(join, 0, s).size(), 2u);
    EXPECT_EQ(rd.defsOfRegAt(join, 0, r).size(), 1u);
    // Param 0 reaches everywhere as a pseudo-def.
    ASSERT_FALSE(rd.defsOfRegAt(join, 0, 0).empty());
    EXPECT_TRUE(rd.defs()[rd.defsOfRegAt(join, 0, 0)[0]].is_param);

    check::BitVector at_join = da.assignedBefore(join, 0);
    EXPECT_TRUE(at_join.test(s));
    EXPECT_FALSE(at_join.test(r)); // not assigned on the other path
    EXPECT_TRUE(at_join.test(0));  // parameters always assigned
}

TEST(Dataflow, BitVectorOps)
{
    check::BitVector a(130), bv(130);
    a.set(0);
    a.set(129);
    bv.set(64);
    EXPECT_TRUE(a.unionWith(bv));
    EXPECT_FALSE(a.unionWith(bv));
    EXPECT_EQ(a.count(), 3u);
    check::BitVector gen(130), kill(130);
    kill.set(129);
    gen.set(1);
    a.transfer(gen, kill);
    EXPECT_TRUE(a.test(1));
    EXPECT_FALSE(a.test(129));
    EXPECT_EQ(check::BitVector(130, true).count(), 130u);
}

TEST(AnalysisManager, CachesAndInvalidates)
{
    ir::Module m = diamondModule();
    AnalysisManager am(m);
    am.cfg(0);
    am.liveness(0);
    const size_t after_first = am.computations();
    am.cfg(0);
    am.liveness(0);
    EXPECT_EQ(am.computations(), after_first);
    am.invalidate(0);
    am.liveness(0);
    EXPECT_GT(am.computations(), after_first);
}

TEST(AnalysisManager, InvalidationIsPerFunction)
{
    ir::Module m;
    for (const char* name : {"left", "right"}) {
        ir::FuncId f = m.addFunction(name, 1);
        ir::FunctionBuilder b(m, f);
        b.ret(b.param(0));
    }
    AnalysisManager am(m);
    am.liveness(0);
    am.cfg(0);
    am.liveness(1);
    am.cfg(1);
    const size_t computed = am.computations();
    const size_t hits = am.hits();

    // Mutating only function 0 must not cost function 1 its cache:
    // the untouched function is served from cache (hit counter), the
    // invalidated one is recomputed (miss counter).
    am.invalidate(0);
    am.liveness(1);
    am.cfg(1);
    EXPECT_EQ(am.computations(), computed);
    EXPECT_EQ(am.hits(), hits + 2);
    am.liveness(0);
    EXPECT_GT(am.computations(), computed);
}

// --- lint group -----------------------------------------------------

TEST(Lint, UseBeforeDefIsError)
{
    ir::Module m;
    ir::FuncId f = m.addFunction("ubd", 0);
    ir::FunctionBuilder b(m, f);
    ir::Reg r = b.newReg();
    b.ret(r);

    CheckReport report = check::runChecks(m, CheckOptions{});
    auto diags = withId(report, "lint.use-before-def");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0]->severity, Severity::kError);
    EXPECT_EQ(diags[0]->func_name, "ubd");
    EXPECT_EQ(diags[0]->block, 0u);
    EXPECT_EQ(diags[0]->inst, 0);
}

TEST(Lint, MaybeUninitIsWarning)
{
    ir::Module m;
    ir::FuncId fid = m.addFunction("maybe", 1);
    ir::FunctionBuilder b(m, fid);
    ir::BlockId then = b.newBlock();
    ir::BlockId join = b.newBlock();
    ir::Reg r = b.newReg();
    b.condBr(b.param(0), then, join);
    b.setBlock(then);
    b.setRegConst(r, 7);
    b.br(join);
    b.setBlock(join);
    b.ret(r);

    CheckReport report = check::runChecks(m, CheckOptions{});
    auto diags = withId(report, "lint.maybe-uninit");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0]->severity, Severity::kWarning);
    EXPECT_EQ(diags[0]->block, join);
    EXPECT_EQ(report.errors(), 0u);
}

TEST(Lint, DeadStoresToRegAndFrame)
{
    ir::Module m;
    ir::FuncId fid = m.addFunction("dead", 1);
    m.func(fid).frame_size = 2;
    ir::FunctionBuilder b(m, fid);
    b.constI(42);              // dead register store
    b.frameStore(0, b.param(0)); // dead frame store
    b.frameStore(1, b.param(0));
    ir::Reg back = b.frameLoad(1); // slot 1 is read -> not dead
    b.ret(back);

    CheckReport report = check::runChecks(m, CheckOptions{});
    auto diags = withId(report, "lint.dead-store");
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0]->block, 0u);
    EXPECT_EQ(diags[0]->inst, 0); // the const
    EXPECT_EQ(diags[1]->inst, 1); // frame slot 0
}

TEST(Lint, UnreachableBlockIsWarning)
{
    ir::Module m = diamondModule();
    CheckReport report = check::runChecks(m, CheckOptions{});
    auto diags = withId(report, "lint.unreachable-block");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0]->block, 4u);
    EXPECT_EQ(diags[0]->inst, -1); // block scope
}

TEST(Lint, ICallArityAgainstResolvableTargets)
{
    ir::Module m;
    ir::FuncId callee = m.addFunction("takes_two", 2);
    {
        ir::FunctionBuilder b(m, callee);
        b.ret(b.param(0));
    }
    ir::FuncId fid = m.addFunction("caller", 1);
    ir::FunctionBuilder b(m, fid);
    ir::Reg target = b.funcAddr(callee);
    b.icall(target, {b.param(0)}); // one arg, callee takes two
    b.ret();

    CheckReport report = check::runChecks(m, CheckOptions{});
    auto diags = withId(report, "lint.call-arity");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0]->severity, Severity::kError);
    EXPECT_EQ(diags[0]->func_name, "caller");
    EXPECT_NE(diags[0]->site, ir::kNoSite);
}

TEST(Lint, ICallThroughBogusConstIsError)
{
    ir::Module m;
    ir::FuncId fid = m.addFunction("bogus", 0);
    ir::FunctionBuilder b(m, fid);
    ir::Reg target = b.constI(ir::funcAddrValue(99)); // no function 99
    b.icall(target, {});
    b.ret();

    CheckReport report = check::runChecks(m, CheckOptions{});
    EXPECT_EQ(withId(report, "lint.call-target").size(), 1u);
}

TEST(Lint, UnknownICallTargetsAreNotJudged)
{
    // Target flows from memory: the lint must stay silent even though
    // the arity would mismatch if it guessed.
    ir::Module m;
    ir::FuncId callee = m.addFunction("takes_two", 2);
    {
        ir::FunctionBuilder b(m, callee);
        b.ret(b.param(0));
    }
    ir::GlobalId g =
        m.addGlobal("table", {ir::funcAddrValue(callee)});
    ir::FuncId fid = m.addFunction("caller", 1);
    ir::FunctionBuilder b(m, fid);
    ir::Reg target = b.load(g, b.constI(0));
    b.icall(target, {b.param(0)});
    b.ret();

    CheckReport report = check::runChecks(m, CheckOptions{});
    EXPECT_TRUE(withId(report, "lint.call-arity").empty());
}

// --- known-good corpora --------------------------------------------

TEST(Check, GeneratedModulesAreErrorFree)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        test::GenConfig cfg;
        cfg.seed = seed;
        ir::Module m = test::generateModule(cfg);
        CheckReport report = check::runChecks(m, CheckOptions{});
        EXPECT_EQ(report.errors(), 0u) << "seed " << seed << ": "
                                       << renderText(report.diags);
    }
}

TEST(Check, KernelIsErrorFree)
{
    kernel::KernelConfig cfg;
    cfg.num_drivers = 16;
    ir::Module m = kernel::buildKernel(cfg).module;
    CheckReport report = check::runChecks(m, CheckOptions{});
    EXPECT_EQ(report.errors(), 0u) << renderText(report.diags);
}

// --- coverage group -------------------------------------------------

/** icall + switch + ret module used by the coverage tests. */
ir::Module
surfaceModule(bool boot_helper = false)
{
    ir::Module m;
    ir::FuncId helper = m.addFunction(
        "helper", 1, boot_helper ? ir::kAttrBootSection : ir::kAttrNone);
    {
        ir::FunctionBuilder b(m, helper);
        b.ret(b.param(0));
    }
    ir::FuncId fid = m.addFunction("main", 1);
    ir::FunctionBuilder b(m, fid);
    ir::BlockId a = b.newBlock();
    ir::BlockId c = b.newBlock();
    b.switchOn(b.param(0), a, {{1, c}});
    b.setBlock(a);
    ir::Reg t = b.funcAddr(helper);
    b.icall(t, {b.param(0)});
    b.ret();
    b.setBlock(c);
    b.ret(b.constI(1));
    return m;
}

TEST(Coverage, HardenedImagePassesAudit)
{
    ir::Module m = surfaceModule();
    harden::applyDefenses(m, harden::DefenseConfig::all());

    CheckOptions opts;
    opts.coverage = true;
    opts.defense = harden::DefenseConfig::all();
    CheckReport report = check::runChecks(m, opts);
    EXPECT_EQ(report.errors(), 0u) << renderText(report.diags);
}

TEST(Coverage, DroppedFwdSchemeIsExactlyOneFinding)
{
    ir::Module m = surfaceModule();
    harden::applyDefenses(m, harden::DefenseConfig::all());
    // Sabotage: drop the scheme from the (only) indirect call.
    ir::SiteId site = ir::kNoSite;
    for (auto& bb : m.func(1).blocks) {
        for (auto& inst : bb.insts) {
            if (inst.op == ir::Opcode::kICall) {
                inst.fwd_scheme = ir::FwdScheme::kNone;
                site = inst.site_id;
            }
        }
    }
    ASSERT_NE(site, ir::kNoSite);

    CheckOptions opts;
    opts.coverage = true;
    opts.defense = harden::DefenseConfig::all();
    CheckReport report = check::runChecks(m, opts);
    auto diags = withId(report, "coverage.fwd-missing");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0]->site, site);
    EXPECT_EQ(diags[0]->func_name, "main");
    EXPECT_EQ(report.errors(), 1u);
}

TEST(Coverage, WrongSchemeAndAsmRewriteAndResidualSwitch)
{
    ir::Module m = surfaceModule();
    // Hand-harden wrongly: retpoline where `all` demands the fenced
    // variant, leave the switch unlowered, and tag an asm site.
    for (auto& bb : m.func(1).blocks) {
        for (auto& inst : bb.insts) {
            if (inst.op == ir::Opcode::kICall) {
                inst.fwd_scheme = ir::FwdScheme::kRetpoline;
                inst.is_asm = true;
            }
            if (inst.op == ir::Opcode::kRet)
                inst.ret_scheme = ir::RetScheme::kFencedRet;
        }
    }
    for (auto& bb : m.func(0).blocks)
        for (auto& inst : bb.insts)
            if (inst.op == ir::Opcode::kRet)
                inst.ret_scheme = ir::RetScheme::kFencedRet;

    CheckOptions opts;
    opts.coverage = true;
    opts.defense = harden::DefenseConfig::all();
    CheckReport report = check::runChecks(m, opts);
    EXPECT_EQ(withId(report, "coverage.asm-rewritten").size(), 1u);
    EXPECT_EQ(withId(report, "coverage.switch-residual").size(), 1u);
    EXPECT_TRUE(withId(report, "coverage.fwd-wrong").empty())
        << "asm exemption outranks the scheme mismatch";
}

TEST(Coverage, RetSchemes)
{
    ir::Module m = surfaceModule(/*boot_helper=*/true);
    harden::applyDefenses(m, harden::DefenseConfig::all());

    // Sabotage one reachable ret in main.
    ir::Instruction* ret = nullptr;
    for (auto& bb : m.func(1).blocks)
        for (auto& inst : bb.insts)
            if (inst.op == ir::Opcode::kRet && !ret)
                ret = &inst;
    ASSERT_NE(ret, nullptr);
    ret->ret_scheme = ir::RetScheme::kLviRet; // wrong under `all`

    CheckOptions opts;
    opts.coverage = true;
    opts.defense = harden::DefenseConfig::all();
    CheckReport report = check::runChecks(m, opts);
    EXPECT_EQ(withId(report, "coverage.ret-wrong").size(), 1u);

    // Boot-section helper got no scheme: that is correct, no finding.
    EXPECT_TRUE(withId(report, "coverage.ret-missing").empty());

    // Now over-harden the boot ret: warning, not error.
    for (auto& bb : m.func(0).blocks)
        for (auto& inst : bb.insts)
            if (inst.op == ir::Opcode::kRet)
                inst.ret_scheme = ir::RetScheme::kFencedRet;
    CheckReport again = check::runChecks(m, opts);
    EXPECT_EQ(withId(again, "coverage.boot-hardened").size(), 1u);
}

TEST(Coverage, AllowlistSuppressesFindings)
{
    ir::Module m = surfaceModule();
    CheckOptions opts;
    opts.coverage = true;
    opts.defense = harden::DefenseConfig::all();
    // Unhardened module: everything reachable is a finding...
    CheckReport bare = check::runChecks(m, opts);
    EXPECT_GT(bare.errors(), 0u);
    // ...unless the functions are allowlisted.
    opts.allowed_funcs = {"main", "helper"};
    CheckReport allowed = check::runChecks(m, opts);
    EXPECT_EQ(allowed.errors(), 0u) << renderText(allowed.diags);
}

TEST(Coverage, UnreachableSiteIsNoteOnly)
{
    ir::Module m = diamondModule(); // bb4 unreachable, has a ret
    harden::applyDefenses(m, harden::DefenseConfig::all());
    // Sabotage the unreachable ret only.
    auto& orphan_ret = m.func(0).blocks[4].insts.back();
    orphan_ret.ret_scheme = ir::RetScheme::kNone;

    CheckOptions opts;
    opts.lint = false;
    opts.coverage = true;
    opts.defense = harden::DefenseConfig::all();
    CheckReport report = check::runChecks(m, opts);
    EXPECT_EQ(report.errors(), 0u) << renderText(report.diags);
    EXPECT_EQ(withId(report, "coverage.unreachable-site").size(), 1u);
}

// runChecks emits group by group (every function's verify and lint
// findings, then every function's coverage findings, then the module
// tail) but returns them in canonical order.
TEST(Checks, RunChecksReturnsCanonicalOrder)
{
    ir::Module m = surfaceModule(); // unhardened: coverage findings
    {
        ir::FuncId f = m.addFunction("dead", 1);
        ir::FunctionBuilder b(m, f);
        b.constI(42); // lint.dead-store
        b.ret(b.param(0));
    }
    {
        ir::FuncId f = m.addFunction("broken", 0);
        ir::FunctionBuilder b(m, f);
        b.ret();
        m.func(f).blocks[0].insts.pop_back(); // verify.function
    }

    CheckOptions opts;
    opts.coverage = true;
    opts.defense = harden::DefenseConfig::all();
    const CheckReport report = check::runChecks(m, opts);

    std::vector<std::string> groups;
    std::vector<ir::FuncId> funcs;
    for (const Diagnostic& d : report.diags) {
        groups.push_back(d.check_id.substr(0, d.check_id.find('.')));
        funcs.push_back(d.func);
    }
    for (const char* group : {"verify", "lint", "coverage"}) {
        EXPECT_NE(std::find(groups.begin(), groups.end(), group),
                  groups.end())
            << group << "\n"
            << renderText(report.diags);
    }
    std::sort(funcs.begin(), funcs.end());
    EXPECT_GE(std::unique(funcs.begin(), funcs.end()) - funcs.begin(), 2);

    std::vector<Diagnostic> sorted = report.diags;
    check::sortDiagnostics(sorted);
    EXPECT_EQ(renderText(report.diags), renderText(sorted));
}

// --- profile group --------------------------------------------------

/** main calls leaf twice directly and once through a pointer. */
ir::Module
callerModule()
{
    ir::Module m;
    ir::FuncId leaf = m.addFunction("leaf", 1);
    {
        ir::FunctionBuilder b(m, leaf);
        b.ret(b.param(0));
    }
    ir::FuncId fid = m.addFunction("main", 1);
    ir::FunctionBuilder b(m, fid);
    ir::Reg r1 = b.call(leaf, {b.param(0)});
    ir::Reg r2 = b.call(leaf, {r1});
    ir::Reg t = b.funcAddr(leaf);
    ir::Reg r3 = b.icall(t, {r2});
    b.ret(r3);
    return m;
}

profile::EdgeProfile
collectProfileOf(const ir::Module& m, int runs)
{
    profile::EdgeProfile prof;
    uarch::Simulator sim(m);
    sim.setTimingEnabled(false);
    sim.setProfiler(&prof);
    for (int i = 0; i < runs; ++i)
        sim.run(m.findFunction("main"), {i});
    return prof;
}

TEST(ProfileFlow, FreshProfileConserves)
{
    ir::Module m = callerModule();
    profile::EdgeProfile prof = collectProfileOf(m, 5);

    CheckOptions opts;
    opts.verify = opts.lint = false;
    opts.profile_flow = true;
    opts.profile = &prof;
    CheckReport report = check::runChecks(m, opts);
    EXPECT_EQ(report.errors(), 0u) << renderText(report.diags);
}

TEST(ProfileFlow, CorruptedInvocationCountIsCaught)
{
    ir::Module m = callerModule();
    profile::EdgeProfile prof = collectProfileOf(m, 5);
    prof.addInvocation(m.findFunction("leaf"), 3); // hand corruption

    CheckOptions opts;
    opts.verify = opts.lint = false;
    opts.profile_flow = true;
    opts.profile = &prof;
    CheckReport report = check::runChecks(m, opts);
    auto diags = withId(report, "profile.invocation-flow");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0]->func_name, "leaf");
    EXPECT_EQ(report.errors(), 1u);
}

TEST(ProfileFlow, RootsAreExemptDownward)
{
    ir::Module m = callerModule();
    profile::EdgeProfile prof = collectProfileOf(m, 5);
    // main is invoked externally 5 times with no incoming edges: that
    // is fine for a root, an error for anything else.
    CheckOptions opts;
    opts.verify = opts.lint = false;
    opts.profile_flow = true;
    opts.profile = &prof;
    CheckReport asroot = check::runChecks(m, opts);
    EXPECT_EQ(asroot.errors(), 0u);
    opts.roots = {"leaf"}; // main no longer a root
    CheckReport report = check::runChecks(m, opts);
    ASSERT_EQ(withId(report, "profile.invocation-flow").size(), 1u);
    EXPECT_EQ(withId(report, "profile.invocation-flow")[0]->func_name,
              "main");
}

TEST(ProfileFlow, UnresolvedAndOutOfBoundSites)
{
    ir::Module m = callerModule();
    profile::EdgeProfile prof = collectProfileOf(m, 2);
    const ir::SiteId bound = m.siteIdBound();
    prof.addDirect(bound + 7, 1);        // beyond the allocated bound
    m.reserveSiteIds(bound + 2);         // bound grows, site unused
    prof.addDirect(bound + 1, 1);        // in bounds, resolves nowhere

    CheckOptions opts;
    opts.verify = opts.lint = false;
    opts.profile_flow = true;
    opts.profile = &prof;
    CheckReport report = check::runChecks(m, opts);
    EXPECT_EQ(withId(report, "profile.site-bound").size(), 1u);
    EXPECT_EQ(withId(report, "profile.unresolved-site").size(), 1u);
}

TEST(ProfileFlow, SiteKindAndAcyclicBound)
{
    ir::Module m = callerModule();
    profile::EdgeProfile prof = collectProfileOf(m, 3);

    // Record a direct count against the icall's site id.
    ir::SiteId icall_site = ir::kNoSite;
    ir::SiteId dcall_site = ir::kNoSite;
    for (const auto& bb : m.func(1).blocks) {
        for (const auto& inst : bb.insts) {
            if (inst.op == ir::Opcode::kICall)
                icall_site = inst.site_id;
            else if (inst.op == ir::Opcode::kCall &&
                     dcall_site == ir::kNoSite)
                dcall_site = inst.site_id;
        }
    }
    prof.addDirect(icall_site, 1);

    CheckOptions opts;
    opts.verify = opts.lint = false;
    opts.profile_flow = true;
    opts.profile = &prof;
    CheckReport report = check::runChecks(m, opts);
    EXPECT_FALSE(withId(report, "profile.site-kind").empty());

    // A straight-line call site cannot execute more often than its
    // function is invoked.
    profile::EdgeProfile prof2 = collectProfileOf(m, 3);
    prof2.addDirect(dcall_site, 50);
    opts.profile = &prof2;
    CheckReport r2 = check::runChecks(m, opts);
    auto diags = withId(r2, "profile.acyclic-bound");
    ASSERT_FALSE(diags.empty());
    EXPECT_EQ(diags[0]->site, dcall_site);
}

TEST(ProfileFlow, ProfilesWithoutInvocationsSkipFlowChecks)
{
    ir::Module m = callerModule();
    profile::EdgeProfile prof; // hand-made: direct counts only
    for (const auto& bb : m.func(1).blocks)
        for (const auto& inst : bb.insts)
            if (inst.op == ir::Opcode::kCall)
                prof.addDirect(inst.site_id, 10);

    CheckOptions opts;
    opts.verify = opts.lint = false;
    opts.profile_flow = true;
    opts.profile = &prof;
    CheckReport report = check::runChecks(m, opts);
    EXPECT_EQ(report.errors(), 0u) << renderText(report.diags);
}

// --- verifier extensions --------------------------------------------

TEST(Verifier, DuplicateSiteIdWithinFunction)
{
    ir::Module m = callerModule();
    // Give both direct calls the same site id.
    std::vector<ir::Instruction*> calls;
    for (auto& bb : m.func(1).blocks)
        for (auto& inst : bb.insts)
            if (inst.op == ir::Opcode::kCall)
                calls.push_back(&inst);
    ASSERT_EQ(calls.size(), 2u);
    calls[1]->site_id = calls[0]->site_id;

    auto problems = ir::verifyFunction(m, m.func(1));
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("duplicate site id"), std::string::npos);
}

TEST(Verifier, DuplicateSiteIdAcrossFunctions)
{
    ir::Module m = callerModule();
    // leaf's ret reuses main's ret site id.
    m.func(0).blocks[0].insts.back().site_id =
        m.func(1).blocks[0].insts.back().site_id;
    EXPECT_TRUE(ir::verifyFunction(m, m.func(0)).empty());
    EXPECT_TRUE(ir::verifyFunction(m, m.func(1)).empty());
    auto problems = ir::verifyModuleSiteIds(m);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("duplicate site id"), std::string::npos);
}

TEST(Verifier, DuplicateSwitchCaseValue)
{
    ir::Module m;
    ir::FuncId fid = m.addFunction("sw", 1);
    ir::FunctionBuilder b(m, fid);
    ir::BlockId other = b.newBlock();
    b.switchOn(b.param(0), other, {{3, other}, {3, other}});
    b.setBlock(other);
    b.ret();

    auto problems = ir::verifyFunction(m, m.func(fid));
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("duplicate switch case value 3"),
              std::string::npos);
}

TEST(Verifier, BrokenFunctionsSurfaceAsVerifyDiagnosticsNotLints)
{
    ir::Module m = callerModule();
    m.func(1).blocks[0].insts.pop_back(); // drop the terminator
    CheckReport report = check::runChecks(m, CheckOptions{});
    EXPECT_FALSE(withId(report, "verify.function").empty());
    // No lint diagnostics for the structurally broken function.
    for (const Diagnostic& d : report.diags) {
        if (d.check_id.rfind("lint.", 0) == 0) {
            EXPECT_NE(d.func_name, "main");
        }
    }
}

// --- pass sandwich --------------------------------------------------

TEST(Sandwich, BrokenHardenPassIsAttributed)
{
    ir::Module m = surfaceModule();
    check::PassSandwich sandwich;

    CheckOptions pre;
    sandwich.afterPass("input", m, pre);

    harden::applyDefenses(m, harden::DefenseConfig::all());
    // The "broken pass": one reachable icall loses its scheme.
    ir::SiteId site = ir::kNoSite;
    for (auto& bb : m.func(1).blocks) {
        for (auto& inst : bb.insts) {
            if (inst.op == ir::Opcode::kICall) {
                inst.fwd_scheme = ir::FwdScheme::kNone;
                site = inst.site_id;
            }
        }
    }

    CheckOptions post;
    post.coverage = true;
    post.defense = harden::DefenseConfig::all();
    const check::StageResult& stage =
        sandwich.afterPass("harden", m, post);

    ASSERT_TRUE(stage.regressed());
    std::vector<const Diagnostic*> fresh_cov;
    for (const Diagnostic& d : stage.fresh)
        if (d.check_id == "coverage.fwd-missing")
            fresh_cov.push_back(&d);
    ASSERT_EQ(fresh_cov.size(), 1u);
    EXPECT_EQ(fresh_cov[0]->pass, "harden");
    EXPECT_EQ(fresh_cov[0]->site, site);
    EXPECT_EQ(fresh_cov[0]->func_name, "main");
}

TEST(Sandwich, CleanPipelineDoesNotRegress)
{
    ir::Module m = surfaceModule();
    check::PassSandwich sandwich;
    CheckOptions pre;
    sandwich.afterPass("input", m, pre);
    harden::applyDefenses(m, harden::DefenseConfig::all());
    CheckOptions post;
    post.coverage = true;
    post.defense = harden::DefenseConfig::all();
    const check::StageResult& stage =
        sandwich.afterPass("harden", m, post);
    EXPECT_FALSE(stage.regressed());
    EXPECT_EQ(stage.errors, 0u);
}

TEST(Sandwich, BuildImageRecordsStagesAndStaysGreen)
{
    test::GenConfig gcfg;
    gcfg.seed = 3;
    ir::Module m = test::generateModule(gcfg);
    profile::EdgeProfile prof;
    {
        uarch::Simulator sim(m);
        sim.setTimingEnabled(false);
        sim.setProfiler(&prof);
        for (const auto& args : test::argMatrix())
            sim.run(test::generatedMain(m), args);
    }
    core::OptConfig opt = core::OptConfig::icpAndInline(0.999);
    ASSERT_TRUE(opt.sandwich); // on by default
    core::BuildReport report;
    ir::Module image = core::buildImage(m, prof, opt,
                                        harden::DefenseConfig::all(),
                                        &report);
    EXPECT_TRUE(test::verifies(image));
    // No stage may have introduced an error-severity finding.
    for (const Diagnostic& d : report.sandwich)
        EXPECT_NE(d.severity, Severity::kError) << d.render();

    // The sandwich runs on one AnalysisManager with per-pass touched
    // sets: only functions a pass actually mutated are invalidated, so
    // later audit stages must have reused analyses of untouched
    // functions.
    EXPECT_GT(report.analyses_computed, 0u);
    EXPECT_GT(report.analyses_reused, 0u);
}

TEST(Diagnostics, SortIsCanonicalAndDeterministic)
{
    auto mk = [](ir::FuncId f, ir::BlockId b, int32_t i,
                 const char* id) {
        Diagnostic d;
        d.severity = Severity::kWarning;
        d.func = f;
        d.block = b;
        d.inst = i;
        d.check_id = id;
        d.message = "m";
        return d;
    };
    // Emission order leaks checker scheduling: group-by-group, with a
    // module-scoped finding in front.
    std::vector<Diagnostic> diags = {
        mk(ir::kInvalidFunc, 0, -1, "coverage.reconcile"),
        mk(2, 0, 3, "lint.dead-store"),
        mk(1, 1, 0, "verify.targets"),
        mk(1, 0, 5, "lint.dead-store"),
        mk(1, 0, 5, "verify.use-before-def"),
        mk(2, 0, 1, "verify.targets"),
    };
    std::vector<Diagnostic> shuffled = {diags[3], diags[0], diags[5],
                                        diags[1], diags[2], diags[4]};
    check::sortDiagnostics(diags);
    check::sortDiagnostics(shuffled);
    ASSERT_EQ(diags.size(), shuffled.size());
    for (size_t i = 0; i < diags.size(); ++i) {
        EXPECT_EQ(diags[i].render(), shuffled[i].render())
            << "sorted order must not depend on emission order";
    }
    // Canonical order: (func, block, inst, check id); module-scoped
    // findings (func == kInvalidFunc) last.
    EXPECT_EQ(diags.front().func, 1u);
    EXPECT_EQ(diags.front().check_id, "lint.dead-store");
    EXPECT_EQ(diags[1].check_id, "verify.use-before-def");
    EXPECT_EQ(diags.back().check_id, "coverage.reconcile");
    for (size_t i = 1; i < diags.size(); ++i)
        EXPECT_LE(diags[i - 1].func, diags[i].func);
}

// Names and messages are data: a quote, a backslash or a control
// character in any string field must survive toJson -> dump -> parse.
TEST(Diagnostics, JsonRoundTripsEscapedStrings)
{
    Diagnostic d;
    d.check_id = "lint.dead-store";
    d.severity = Severity::kWarning;
    d.pass = "inline";
    d.func = 3;
    d.func_name = "f\"q\\b\x01";
    d.block = 2;
    d.inst = 5;
    d.site = 17;
    d.message = "say \"hi\" \\ then\n\ttab\x1f";
    d.hint = "h\"\\\r\b";
    const std::optional<Json> j = Json::parse(d.toJson().dump());
    ASSERT_TRUE(j.has_value()) << d.toJson().dump();
    EXPECT_EQ((*j)["check"].asString(), d.check_id);
    EXPECT_EQ((*j)["severity"].asString(), "warning");
    EXPECT_EQ((*j)["pass"].asString(), d.pass);
    EXPECT_EQ((*j)["func"].asString(), d.func_name);
    EXPECT_EQ((*j)["func_id"].asInt(), 3);
    EXPECT_EQ((*j)["block"].asInt(), 2);
    EXPECT_EQ((*j)["inst"].asInt(), 5);
    EXPECT_EQ((*j)["site"].asInt(), 17);
    EXPECT_EQ((*j)["message"].asString(), d.message);
    EXPECT_EQ((*j)["hint"].asString(), d.hint);

    // Module scope: no location fields, no empty pass or hint.
    Diagnostic m;
    m.check_id = "coverage.reconcile";
    m.message = "m";
    const Json mj = m.toJson();
    EXPECT_EQ(mj.size(), 3u) << mj.dump(); // check, severity, message
    EXPECT_FALSE(mj.has("func_id"));
    EXPECT_FALSE(mj.has("hint"));
}

// --- streaming cursors vs replay oracles ----------------------------

// The lint sweep runs on forward streaming cursors / per-block fact
// matrices; the original per-query forms are kept as oracles. Every
// (block, instruction, register) query must agree on modules with
// branches, icalls, frames, and dead code.
TEST(DataflowCursors, StreamingMatchesReplayOracles)
{
    for (uint64_t seed : {1u, 7u, 23u, 99u, 1234u}) {
        test::GenConfig gcfg;
        gcfg.seed = seed;
        gcfg.num_mids = 8;
        gcfg.max_blocks = 7;
        const ir::Module m = test::generateModule(gcfg);
        ASSERT_TRUE(test::verifies(m));

        for (const ir::Function& f : m.functions()) {
            if (f.isDeclaration())
                continue;
            const check::Cfg cfg(f);
            const check::Liveness live(f, cfg);
            const check::FrameLiveness frame_live(f, cfg);
            const check::ReachingDefs reach(f, cfg);
            const check::DefiniteAssignment assign(f, cfg);

            check::ReachingDefs::Cursor reach_cur(reach);
            check::DefiniteAssignment::Cursor assign_cur(assign);
            check::FactMatrix reg_out;
            check::FactMatrix frame_out;
            std::vector<size_t> cursor_ids;

            for (ir::BlockId b = 0; b < f.blocks.size(); ++b) {
                const auto& insts = f.blocks[b].insts;
                const std::vector<check::BitVector> live_ref =
                    live.perInstLiveOut(b);
                const std::vector<check::BitVector> frame_ref =
                    frame_live.perInstLiveOut(b);
                live.perInstLiveOut(b, reg_out);
                frame_live.perInstLiveOut(b, frame_out);
                reach_cur.startBlock(b);
                assign_cur.startBlock(b);

                for (uint32_t i = 0; i < insts.size(); ++i) {
                    for (ir::Reg r = 0; r < f.num_regs; ++r) {
                        EXPECT_EQ(reg_out.test(i, r),
                                  live_ref[i].test(r))
                            << f.name << " b" << b << " i" << i
                            << " r" << r;
                        reach_cur.defsOf(r, cursor_ids);
                        EXPECT_EQ(cursor_ids,
                                  reach.defsOfRegAt(b, i, r))
                            << f.name << " b" << b << " i" << i
                            << " r" << r;
                    }
                    for (uint32_t s = 0; s < f.frame_size; ++s)
                        EXPECT_EQ(frame_out.test(i, s),
                                  frame_ref[i].test(s));
                    EXPECT_TRUE(assign_cur.assigned() ==
                                assign.assignedBefore(b, i))
                        << f.name << " b" << b << " i" << i;
                    reach_cur.advance(insts[i]);
                    assign_cur.advance(insts[i]);
                }
            }
        }
    }
}

// --- the parallel check sandwich ------------------------------------

// runChecksParallel must return the same diagnostics, in the same
// order, as the inline runChecks at every pool size and shard size, on
// a module seeded with real findings (dead stores, uninitialized uses,
// bad coverage).
TEST(ParallelChecks, IdenticalToSerialAtEveryPoolAndShardSize)
{
    test::GenConfig gcfg;
    gcfg.seed = 5;
    gcfg.num_mids = 10;
    ir::Module m = test::generateModule(gcfg);

    check::CheckOptions opts;
    opts.coverage = true; // unhardened module: plenty of findings
    opts.targets = true;
    opts.defense = harden::DefenseConfig::all();

    const CheckReport inline_run = check::runChecks(m, opts);
    ASSERT_FALSE(inline_run.diags.empty());
    const std::string want = check::renderText(inline_run.diags);

    for (size_t pool_size : {1u, 2u, 8u}) {
        for (size_t shard : {1u, 3u, 64u}) {
            runtime::ThreadPool pool(pool_size);
            const CheckReport pooled =
                check::runChecksParallel(m, opts, pool, shard);
            EXPECT_EQ(check::renderText(pooled.diags), want)
                << "pool " << pool_size << " shard " << shard;
        }
    }
}

/** Phase names of `report`, in run order. */
std::vector<std::string>
phaseNames(const CheckReport& report)
{
    std::vector<std::string> names;
    for (const auto& [name, ms] : report.group_ms)
        names.push_back(name);
    return names;
}

// A clean hardened kernel must stay clean through the parallel
// sandwich, and both entry points report the same three phases.
TEST(ParallelChecks, CleanKernelStaysCleanAndTimed)
{
    kernel::KernelConfig kcfg;
    kcfg.num_drivers = 3;
    ir::Module m = kernel::buildKernel(kcfg).module;
    harden::applyDefenses(m, harden::DefenseConfig::all());

    check::CheckOptions opts;
    opts.coverage = true;
    opts.targets = true;
    opts.defense = harden::DefenseConfig::all();

    runtime::ThreadPool pool(4);
    const CheckReport par = check::runChecksParallel(m, opts, pool, 2);
    EXPECT_EQ(par.errors(), 0u)
        << (par.diags.empty() ? std::string()
                              : par.diags.front().render());

    const CheckReport serial = check::runChecks(m, opts);
    EXPECT_EQ(check::renderText(par.diags),
              check::renderText(serial.diags));

    const std::vector<std::string> want = {
        "targets.solve", "shards.parallel", "module.serial"};
    EXPECT_EQ(phaseNames(par), want);
    EXPECT_EQ(phaseNames(serial), want);
}

} // namespace
} // namespace pibe
