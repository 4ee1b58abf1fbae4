/** @file Tests for the hardening pass and coverage accounting. */
#include <gtest/gtest.h>

#include "harden/harden.h"
#include "ir/builder.h"
#include "opt/jump_tables.h"
#include "tests/test_util.h"

namespace pibe {
namespace {

using harden::DefenseConfig;
using ir::BinKind;
using ir::FunctionBuilder;
using ir::FwdScheme;
using ir::Module;
using ir::RetScheme;

/** Module with: icall (normal + asm), switch, rets (normal + boot). */
Module
makeSurfaceModule()
{
    Module m;
    ir::FuncId leaf = m.addFunction("leaf", 1);
    {
        FunctionBuilder b(m, leaf);
        b.ret(b.param(0));
    }
    ir::FuncId boot = m.addFunction("boot_init", 0,
                                    ir::kAttrBootSection);
    {
        FunctionBuilder b(m, boot);
        b.ret(b.constI(0));
    }
    ir::FuncId f = m.addFunction("hot", 1);
    {
        FunctionBuilder b(m, f);
        ir::Reg t = b.funcAddr(leaf);
        ir::Reg r1 = b.icall(t, {b.param(0)});
        ir::Reg r2 = b.icall(t, {r1}, /*is_asm=*/true);
        ir::BlockId d = b.newBlock();
        ir::BlockId c1 = b.newBlock();
        b.switchOn(r2, d, {{0, c1}});
        b.setBlock(c1);
        b.ret(b.constI(1));
        b.setBlock(d);
        b.ret(b.constI(2));
    }
    return m;
}

TEST(DefenseConfig, SchemeSelection)
{
    EXPECT_EQ(harden::forwardSchemeFor(DefenseConfig::none()),
              FwdScheme::kNone);
    EXPECT_EQ(harden::forwardSchemeFor(DefenseConfig::retpolinesOnly()),
              FwdScheme::kRetpoline);
    EXPECT_EQ(harden::forwardSchemeFor(DefenseConfig::lviOnly()),
              FwdScheme::kLviCfi);
    // Retpolines and LVI-CFI instrument the same sequence and are
    // incompatible; the combination must be the fenced retpoline.
    EXPECT_EQ(harden::forwardSchemeFor(DefenseConfig::all()),
              FwdScheme::kFencedRetpoline);
    EXPECT_EQ(harden::forwardSchemeFor(DefenseConfig::jumpSwitches()),
              FwdScheme::kJumpSwitch);

    EXPECT_EQ(harden::returnSchemeFor(DefenseConfig::retpolinesOnly()),
              RetScheme::kNone); // retpolines do not cover returns
    EXPECT_EQ(harden::returnSchemeFor(DefenseConfig::retRetpolinesOnly()),
              RetScheme::kReturnRetpoline);
    EXPECT_EQ(harden::returnSchemeFor(DefenseConfig::lviOnly()),
              RetScheme::kLviRet);
    EXPECT_EQ(harden::returnSchemeFor(DefenseConfig::all()),
              RetScheme::kFencedRet);
}

TEST(DefenseConfig, Names)
{
    EXPECT_EQ(DefenseConfig::none().name(), "none");
    EXPECT_EQ(DefenseConfig::retpolinesOnly().name(), "retpolines");
    EXPECT_EQ(DefenseConfig::all().name(),
              "retpolines+lvi-cfi+ret-retpolines");
    EXPECT_EQ(DefenseConfig::jumpSwitches().name(), "jumpswitches");
}

TEST(Harden, AppliesSchemesAndLowersJumpTables)
{
    Module m = makeSurfaceModule();
    auto report = harden::applyDefenses(m, DefenseConfig::all());
    EXPECT_EQ(report.lowered_switches, 1u);
    EXPECT_EQ(report.protected_icalls, 1u);
    EXPECT_EQ(report.vulnerable_icalls, 1u); // the asm site
    EXPECT_EQ(report.vulnerable_ijumps, 0u);
    EXPECT_EQ(report.boot_only_rets, 1u);
    EXPECT_EQ(report.protected_rets, 3u); // leaf + hot's two rets
    EXPECT_TRUE(test::verifies(m));
}

TEST(Harden, AsmSwitchStaysVulnerable)
{
    Module m;
    ir::FuncId f = m.addFunction("asm_dispatch", 1);
    FunctionBuilder b(m, f);
    ir::BlockId d = b.newBlock();
    ir::BlockId c1 = b.newBlock();
    b.switchOn(b.param(0), d, {{0, c1}}, /*is_asm=*/true);
    b.setBlock(c1);
    b.ret(b.constI(1));
    b.setBlock(d);
    b.ret(b.constI(0));
    auto report = harden::applyDefenses(m, DefenseConfig::all());
    EXPECT_EQ(report.vulnerable_ijumps, 1u);
}

TEST(Harden, NoDefensesLeavesEverythingAlone)
{
    Module m = makeSurfaceModule();
    auto report = harden::applyDefenses(m, DefenseConfig::none());
    EXPECT_EQ(report.protected_icalls, 0u);
    EXPECT_EQ(report.vulnerable_icalls, 2u);
    EXPECT_EQ(report.protected_rets, 0u);
    EXPECT_EQ(opt::countSwitches(m), 1u); // jump table kept
}

TEST(Harden, SemanticsUnchangedByHardening)
{
    Module m = makeSurfaceModule();
    ir::FuncId f = m.findFunction("hot");
    auto before = test::runScript(m, f, {{0}, {1}, {5}});
    harden::applyDefenses(m, DefenseConfig::all());
    EXPECT_EQ(test::runScript(m, f, {{0}, {1}, {5}}), before);
}

TEST(Harden, RetpolinesOnlyLeavesReturnsPlain)
{
    Module m = makeSurfaceModule();
    harden::applyDefenses(m, DefenseConfig::retpolinesOnly());
    for (const ir::Function& f : m.functions()) {
        for (const auto& bb : f.blocks) {
            for (const auto& inst : bb.insts) {
                if (inst.op == ir::Opcode::kRet) {
                    EXPECT_EQ(inst.ret_scheme, RetScheme::kNone);
                }
                if (inst.op == ir::Opcode::kICall && !inst.is_asm) {
                    EXPECT_EQ(inst.fwd_scheme, FwdScheme::kRetpoline);
                }
            }
        }
    }
}

TEST(Harden, AnalyzeCoverageMatchesApplyReport)
{
    Module m = makeSurfaceModule();
    auto applied = harden::applyDefenses(m, DefenseConfig::all());
    auto analyzed = harden::analyzeCoverage(m);
    EXPECT_EQ(applied.protected_icalls, analyzed.protected_icalls);
    EXPECT_EQ(applied.vulnerable_icalls, analyzed.vulnerable_icalls);
    EXPECT_EQ(applied.protected_rets, analyzed.protected_rets);
    EXPECT_EQ(applied.boot_only_rets, analyzed.boot_only_rets);
}

/** Every defense combination keeps the module valid and equivalent. */
class HardenCombos : public ::testing::TestWithParam<int>
{
};

TEST_P(HardenCombos, AllCombinationsPreserveBehaviour)
{
    const int bits = GetParam();
    DefenseConfig cfg;
    cfg.retpoline = bits & 1;
    cfg.lvi_cfi = bits & 2;
    cfg.ret_retpoline = bits & 4;
    cfg.jump_switches = (bits & 8) && cfg.retpoline;

    Module m = makeSurfaceModule();
    ir::FuncId f = m.findFunction("hot");
    auto before = test::runScript(m, f, {{0}, {1}, {7}});
    harden::applyDefenses(m, cfg);
    ASSERT_TRUE(test::verifies(m));
    EXPECT_EQ(test::runScript(m, f, {{0}, {1}, {7}}), before);
}

INSTANTIATE_TEST_SUITE_P(AllCombos, HardenCombos,
                         ::testing::Range(0, 16));

} // namespace
} // namespace pibe
