/**
 * @file
 * Andersen-style function-pointer points-to analysis (target sets).
 *
 * See target_sets.h for the abstraction and DESIGN.md §10 for the
 * constraint rules and the soundness argument; DESIGN.md §11 covers
 * the solver. solve() is a plain worklist fixpoint: whole sets travel
 * along every subset edge whenever their source changes, and icall
 * argument/return edges are wired dynamically as the pointer's set
 * grows. Because the system is monotone and the worklist runs to the
 * least fixpoint, the solution is independent of processing order —
 * serial and parallel audits see bit-identical sets.
 */
#include "check/target_sets.h"

#include <algorithm>
#include <iomanip>
#include <iterator>
#include <sstream>

#include "check/diagnostic.h"
#include "harden/harden.h"

namespace pibe::check {

namespace {

/** Conventional module entry points (matches checks.cc roots). */
const char* const kDefaultRoots[] = {"kernel_init", "sys_dispatch",
                                     "main"};

bool
isComparison(ir::BinKind k)
{
    return k >= ir::BinKind::kEq;
}

/** dst ∪= add; true if dst grew. Both sorted and unique. */
bool
unionInto(std::vector<ir::FuncId>& dst, const std::vector<ir::FuncId>& add)
{
    if (add.empty())
        return false;
    if (dst.empty()) {
        dst = add;
        return true;
    }
    std::vector<ir::FuncId> merged;
    merged.reserve(dst.size() + add.size());
    std::set_union(dst.begin(), dst.end(), add.begin(), add.end(),
                   std::back_inserter(merged));
    if (merged.size() == dst.size())
        return false;
    dst = std::move(merged);
    return true;
}

} // namespace

TargetSetAnalysis::TargetSetAnalysis(const ir::Module& module,
                                     std::vector<std::string> roots)
    : module_(module), roots_(std::move(roots))
{
}

void
TargetSetAnalysis::invalidateFunction(ir::FuncId f)
{
    if (f < summaries_.size())
        summaries_[f].dirty = true;
    solved_ = false;
}

uint32_t
TargetSetAnalysis::regNode(ir::FuncId f, ir::Reg r) const
{
    return reg_base_[f] + r;
}

uint32_t
TargetSetAnalysis::frameNode(ir::FuncId f, uint32_t slot) const
{
    return frame_base_[f] + slot;
}

uint32_t
TargetSetAnalysis::retNode(ir::FuncId f) const
{
    return ret_node_[f];
}

uint32_t
TargetSetAnalysis::globalNode(ir::GlobalId g) const
{
    return global_base_ + g;
}

void
TargetSetAnalysis::extractSummary(ir::FuncId f)
{
    FuncSummary& sum = summaries_[f];
    sum.constraints.clear();
    sum.icalls.clear();
    sum.dirty = false;
    ++summaries_extracted_;

    const ir::Function& fn = module_.func(f);
    const uint32_t nregs = fn.num_regs;
    auto reg_ok = [nregs](ir::Reg r) { return r < nregs; };

    for (ir::BlockId b = 0; b < fn.blocks.size(); ++b) {
        const auto& insts = fn.blocks[b].insts;
        for (uint32_t i = 0; i < insts.size(); ++i) {
            const ir::Instruction& in = insts[i];
            Constraint c;
            switch (in.op) {
              case ir::Opcode::kConst:
                if (ir::isFuncAddrValue(in.imm) && reg_ok(in.dst)) {
                    ir::FuncId t = ir::funcAddrTarget(in.imm);
                    if (t < module_.numFunctions()) {
                        c.kind = Constraint::Kind::kSeed;
                        c.dst = in.dst;
                        c.target = t;
                    } else {
                        // Address of a nonexistent function: an
                        // unresolvable value (lint.call-target flags
                        // the call site).
                        c.kind = Constraint::Kind::kIncomplete;
                        c.dst = in.dst;
                    }
                    sum.constraints.push_back(c);
                }
                break;
              case ir::Opcode::kFuncAddr:
                if (reg_ok(in.dst)) {
                    if (in.callee < module_.numFunctions()) {
                        c.kind = Constraint::Kind::kSeed;
                        c.dst = in.dst;
                        c.target = in.callee;
                    } else {
                        c.kind = Constraint::Kind::kIncomplete;
                        c.dst = in.dst;
                    }
                    sum.constraints.push_back(c);
                }
                break;
              case ir::Opcode::kMove:
                if (reg_ok(in.dst) && reg_ok(in.a)) {
                    c.kind = Constraint::Kind::kCopy;
                    c.dst = in.dst;
                    c.src = in.a;
                    sum.constraints.push_back(c);
                }
                break;
              case ir::Opcode::kBinOp:
                // Comparisons yield 0/1, never a pointer. Arithmetic
                // on a possible pointer escapes the abstraction: the
                // result is incomplete (we do not model forged
                // addresses), but carries no targets.
                if (!isComparison(in.bin) && reg_ok(in.dst)) {
                    for (ir::Reg src : {in.a, in.b}) {
                        if (!reg_ok(src))
                            continue;
                        c.kind = Constraint::Kind::kTaint;
                        c.dst = in.dst;
                        c.src = src;
                        sum.constraints.push_back(c);
                    }
                }
                break;
              case ir::Opcode::kLoad:
                if (reg_ok(in.dst)) {
                    if (in.global < module_.numGlobals()) {
                        // Field-insensitive: any slot may flow out.
                        c.kind = Constraint::Kind::kLoadGlobal;
                        c.dst = in.dst;
                        c.src = in.global;
                    } else {
                        c.kind = Constraint::Kind::kIncomplete;
                        c.dst = in.dst;
                    }
                    sum.constraints.push_back(c);
                }
                break;
              case ir::Opcode::kStore:
                if (reg_ok(in.b) && in.global < module_.numGlobals()) {
                    c.kind = Constraint::Kind::kStoreGlobal;
                    c.dst = in.global;
                    c.src = in.b;
                    sum.constraints.push_back(c);
                }
                break;
              case ir::Opcode::kFrameLoad:
                if (reg_ok(in.dst)) {
                    if (in.imm >= 0 &&
                        in.imm < static_cast<int64_t>(fn.frame_size)) {
                        c.kind = Constraint::Kind::kFrameLoad;
                        c.dst = in.dst;
                        c.src = static_cast<uint32_t>(in.imm);
                    } else {
                        c.kind = Constraint::Kind::kIncomplete;
                        c.dst = in.dst;
                    }
                    sum.constraints.push_back(c);
                }
                break;
              case ir::Opcode::kFrameStore:
                if (reg_ok(in.a) && in.imm >= 0 &&
                    in.imm < static_cast<int64_t>(fn.frame_size)) {
                    c.kind = Constraint::Kind::kFrameStore;
                    c.dst = static_cast<uint32_t>(in.imm);
                    c.src = in.a;
                    sum.constraints.push_back(c);
                }
                break;
              case ir::Opcode::kCall: {
                if (in.callee >= module_.numFunctions()) {
                    if (in.dst != ir::kNoReg && reg_ok(in.dst)) {
                        c.kind = Constraint::Kind::kIncomplete;
                        c.dst = in.dst;
                        sum.constraints.push_back(c);
                    }
                    break;
                }
                const ir::Function& callee = module_.func(in.callee);
                if (!callee.isDeclaration()) {
                    // Arguments flow into parameter registers.
                    uint32_t np = std::min(callee.num_params,
                                           callee.num_regs);
                    for (uint32_t ai = 0;
                         ai < in.args.size() && ai < np; ++ai) {
                        if (!reg_ok(in.args[ai]))
                            continue;
                        c.kind = Constraint::Kind::kCallArg;
                        c.dst = ai;
                        c.src = in.args[ai];
                        c.callee = in.callee;
                        sum.constraints.push_back(c);
                    }
                }
                if (in.dst != ir::kNoReg && reg_ok(in.dst)) {
                    // Declarations' return nodes are seeded
                    // incomplete, so this stays sound for them.
                    c = Constraint{};
                    c.kind = Constraint::Kind::kCallRet;
                    c.dst = in.dst;
                    c.callee = in.callee;
                    sum.constraints.push_back(c);
                }
                break;
              }
              case ir::Opcode::kICall: {
                IcallRecord rec;
                rec.site = in.site_id;
                rec.block = b;
                rec.index = i;
                rec.ptr = in.a;
                rec.dst = in.dst;
                rec.args = in.args;
                rec.is_asm = in.is_asm;
                sum.icalls.push_back(std::move(rec));
                break;
              }
              case ir::Opcode::kRet:
                if (in.a != ir::kNoReg && reg_ok(in.a)) {
                    c.kind = Constraint::Kind::kRet;
                    c.src = in.a;
                    sum.constraints.push_back(c);
                }
                break;
              default:
                break; // kBr/kCondBr/kSwitch/kSink move no values.
            }
        }
    }
}

void
TargetSetAnalysis::layoutNodes()
{
    // Rebuilt per solve: passes may grow regs.
    const size_t nf = module_.numFunctions();
    reg_base_.assign(nf, 0);
    frame_base_.assign(nf, 0);
    ret_node_.assign(nf, 0);
    uint32_t n = 0;
    for (ir::FuncId f = 0; f < nf; ++f) {
        const ir::Function& fn = module_.func(f);
        reg_base_[f] = n;
        n += fn.num_regs;
        frame_base_[f] = n;
        n += fn.frame_size;
        ret_node_[f] = n;
        n += 1;
    }
    global_base_ = n;
    n += static_cast<uint32_t>(module_.numGlobals());
    num_nodes_ = n;
}

void
TargetSetAnalysis::solve()
{
    const size_t nf = module_.numFunctions();
    if (summaries_.size() < nf)
        summaries_.resize(nf);
    for (ir::FuncId f = 0; f < nf; ++f)
        if (summaries_[f].dirty)
            extractSummary(f);
    ++solves_;
    layoutNodes();

    const uint32_t n = num_nodes_;
    stats_ = SolverStats{};
    stats_.nodes = n;

    pts_.assign(n, {});
    incomplete_.assign(n, false);
    sites_.clear();
    bad_slots_.clear();

    // Working state: locals, so the edge lists (millions of wired
    // icall edges at kernel scale) are freed when the solve returns.
    std::vector<std::vector<uint32_t>> edges(n);
    std::vector<std::vector<uint32_t>> taint_edges(n);
    std::vector<uint32_t> worklist;
    std::vector<bool> on_worklist(n, false);

    auto push = [&](uint32_t node) {
        if (on_worklist[node])
            return;
        on_worklist[node] = true;
        worklist.push_back(node);
    };
    auto markIncomplete = [&](uint32_t node) {
        if (incomplete_[node])
            return false;
        incomplete_[node] = true;
        return true;
    };
    // Add pts(from) ⊆ pts(to) and propagate what `from` already holds.
    auto addEdge = [&](uint32_t from, uint32_t to) {
        edges[from].push_back(to);
        bool changed = unionInto(pts_[to], pts_[from]);
        if (incomplete_[from])
            changed = markIncomplete(to) || changed;
        if (changed)
            push(to);
    };
    auto addTaintEdge = [&](uint32_t from, uint32_t to) {
        taint_edges[from].push_back(to);
        if (!pts_[from].empty() || incomplete_[from])
            if (markIncomplete(to))
                push(to);
    };

    std::vector<ir::FuncId> taken;

    // --- seeds: global initializers ---
    for (ir::GlobalId g = 0; g < module_.numGlobals(); ++g) {
        const ir::Global& gl = module_.global(g);
        for (size_t slot = 0; slot < gl.init.size(); ++slot) {
            int64_t v = gl.init[slot];
            if (!ir::isFuncAddrValue(v))
                continue;
            ir::FuncId t = ir::funcAddrTarget(v);
            if (t < nf) {
                unionInto(pts_[globalNode(g)], {t});
                taken.push_back(t);
            } else {
                bad_slots_.push_back(BadGlobalSlot{g, slot, v});
                markIncomplete(globalNode(g));
            }
        }
    }

    // --- seeds: root parameters come from outside the module ---
    auto seedRoot = [&](const std::string& name) {
        ir::FuncId f = module_.findFunction(name);
        if (f == ir::kInvalidFunc)
            return;
        const ir::Function& fn = module_.func(f);
        uint32_t np = std::min(fn.num_params, fn.num_regs);
        for (uint32_t p = 0; p < np; ++p)
            markIncomplete(regNode(f, p));
    };
    if (roots_.empty()) {
        for (const char* name : kDefaultRoots)
            seedRoot(name);
    } else {
        for (const std::string& name : roots_)
            seedRoot(name);
    }

    // --- static constraints ---
    for (ir::FuncId f = 0; f < nf; ++f) {
        const ir::Function& fn = module_.func(f);
        if (fn.isDeclaration())
            markIncomplete(retNode(f)); // Body unknown.
        for (const Constraint& c : summaries_[f].constraints) {
            switch (c.kind) {
              case Constraint::Kind::kSeed:
                unionInto(pts_[regNode(f, c.dst)], {c.target});
                taken.push_back(c.target);
                break;
              case Constraint::Kind::kCopy:
                addEdge(regNode(f, c.src), regNode(f, c.dst));
                break;
              case Constraint::Kind::kTaint:
                addTaintEdge(regNode(f, c.src), regNode(f, c.dst));
                break;
              case Constraint::Kind::kLoadGlobal:
                addEdge(globalNode(c.src), regNode(f, c.dst));
                break;
              case Constraint::Kind::kStoreGlobal:
                addEdge(regNode(f, c.src), globalNode(c.dst));
                break;
              case Constraint::Kind::kFrameLoad:
                addEdge(frameNode(f, c.src), regNode(f, c.dst));
                break;
              case Constraint::Kind::kFrameStore:
                addEdge(regNode(f, c.src), frameNode(f, c.dst));
                break;
              case Constraint::Kind::kCallArg:
                addEdge(regNode(f, c.src), regNode(c.callee, c.dst));
                break;
              case Constraint::Kind::kCallRet:
                addEdge(retNode(c.callee), regNode(f, c.dst));
                break;
              case Constraint::Kind::kRet:
                addEdge(regNode(f, c.src), retNode(f));
                break;
              case Constraint::Kind::kIncomplete:
                markIncomplete(regNode(f, c.dst));
                break;
            }
        }
    }

    std::sort(taken.begin(), taken.end());
    taken.erase(std::unique(taken.begin(), taken.end()), taken.end());
    address_taken_ = std::move(taken);

    // --- icall sites: dynamic edges as pts(ptr) grows ---
    struct SiteState
    {
        ir::FuncId func;
        const IcallRecord* rec;
        std::vector<ir::FuncId> wired; // Targets already wired.
        bool incomplete_handled = false;
        bool bad_ptr = false;
    };
    std::vector<SiteState> states;
    std::vector<std::vector<uint32_t>> sites_by_node(n);
    for (ir::FuncId f = 0; f < nf; ++f) {
        const ir::Function& fn = module_.func(f);
        for (const IcallRecord& rec : summaries_[f].icalls) {
            SiteState st;
            st.func = f;
            st.rec = &rec;
            st.bad_ptr = rec.ptr >= fn.num_regs;
            if (!st.bad_ptr)
                sites_by_node[regNode(f, rec.ptr)].push_back(
                    static_cast<uint32_t>(states.size()));
            states.push_back(std::move(st));
        }
    }

    // An icall through an unresolved pointer may invoke any
    // address-taken function: its parameters then hold unknown values.
    bool unresolved_icall_handled = false;
    auto taintAddressTakenParams = [&]() {
        if (unresolved_icall_handled)
            return;
        unresolved_icall_handled = true;
        for (ir::FuncId a : address_taken_) {
            const ir::Function& fa = module_.func(a);
            uint32_t np = std::min(fa.num_params, fa.num_regs);
            for (uint32_t p = 0; p < np; ++p)
                if (markIncomplete(regNode(a, p)))
                    push(regNode(a, p));
        }
    };

    auto processSite = [&](uint32_t idx) {
        SiteState& st = states[idx];
        const IcallRecord& rec = *st.rec;
        const ir::Function& fn = module_.func(st.func);
        uint32_t pnode = regNode(st.func, rec.ptr);
        // Wire newly discovered targets. Copy the current set: wiring
        // can grow pts_[pnode] itself (self-referential icalls), which
        // re-queues the node and re-runs this diff.
        std::vector<ir::FuncId> cur = pts_[pnode];
        if (cur.size() != st.wired.size()) {
            std::vector<ir::FuncId> fresh;
            std::set_difference(cur.begin(), cur.end(),
                                st.wired.begin(), st.wired.end(),
                                std::back_inserter(fresh));
            st.wired = cur;
            for (ir::FuncId t : fresh) {
                const ir::Function& tf = module_.func(t);
                if (!tf.isDeclaration() &&
                    tf.num_params == rec.args.size()) {
                    uint32_t np = std::min(tf.num_params, tf.num_regs);
                    for (uint32_t ai = 0; ai < np; ++ai)
                        if (rec.args[ai] < fn.num_regs)
                            addEdge(regNode(st.func, rec.args[ai]),
                                    regNode(t, ai));
                }
                if (rec.dst != ir::kNoReg && rec.dst < fn.num_regs)
                    addEdge(retNode(t), regNode(st.func, rec.dst));
            }
        }
        if (incomplete_[pnode] && !st.incomplete_handled) {
            st.incomplete_handled = true;
            if (rec.dst != ir::kNoReg && rec.dst < fn.num_regs)
                if (markIncomplete(regNode(st.func, rec.dst)))
                    push(regNode(st.func, rec.dst));
            taintAddressTakenParams();
        }
    };

    // Sites whose pointer register is out of range are permanently
    // unresolved (the verifier reports the broken function).
    for (const SiteState& st : states)
        if (st.bad_ptr)
            taintAddressTakenParams();

    // --- fixpoint ---
    for (uint32_t nd = 0; nd < n; ++nd)
        push(nd);
    while (!worklist.empty()) {
        uint32_t nd = worklist.back();
        worklist.pop_back();
        on_worklist[nd] = false;
        ++stats_.pops;
        for (uint32_t to : edges[nd]) {
            bool changed = unionInto(pts_[to], pts_[nd]);
            if (incomplete_[nd])
                changed = markIncomplete(to) || changed;
            if (changed)
                push(to);
        }
        if (!pts_[nd].empty() || incomplete_[nd])
            for (uint32_t to : taint_edges[nd])
                if (markIncomplete(to))
                    push(to);
        for (uint32_t sidx : sites_by_node[nd])
            processSite(sidx);
    }

    // --- publish per-site results ---
    for (const SiteState& st : states) {
        const IcallRecord& rec = *st.rec;
        SiteTargets out;
        out.site = rec.site;
        out.func = st.func;
        out.block = rec.block;
        out.index = rec.index;
        out.ptr = rec.ptr;
        out.is_asm = rec.is_asm;
        if (st.bad_ptr) {
            out.incomplete = true;
        } else {
            uint32_t pnode = regNode(st.func, rec.ptr);
            out.incomplete = incomplete_[pnode];
            out.targets = pts_[pnode];
        }
        if (out.site != ir::kNoSite)
            sites_.emplace(out.site, std::move(out));
    }

    solved_ = true;
}

const std::map<ir::SiteId, SiteTargets>&
TargetSetAnalysis::sites()
{
    if (!solved_ || summaries_.size() < module_.numFunctions())
        solve();
    return sites_;
}

const SiteTargets*
TargetSetAnalysis::site(ir::SiteId s)
{
    const auto& m = sites();
    auto it = m.find(s);
    return it == m.end() ? nullptr : &it->second;
}

TargetSet
TargetSetAnalysis::regTargets(ir::FuncId f, ir::Reg r)
{
    sites(); // Ensure solved.
    TargetSet ts;
    if (f >= module_.numFunctions() || r >= module_.func(f).num_regs) {
        ts.incomplete = true;
        return ts;
    }
    uint32_t nd = regNode(f, r);
    ts.targets = pts_[nd];
    ts.incomplete = incomplete_[nd];
    return ts;
}

const std::vector<ir::FuncId>&
TargetSetAnalysis::addressTaken()
{
    sites();
    return address_taken_;
}

const std::vector<BadGlobalSlot>&
TargetSetAnalysis::badGlobalSlots()
{
    sites();
    return bad_slots_;
}

opt::FeasibilityMap
feasibilityMap(TargetSetAnalysis& analysis)
{
    opt::FeasibilityMap out;
    for (const auto& [sid, st] : analysis.sites()) {
        opt::SiteFeasibility f;
        f.complete = st.complete();
        f.targets = st.targets;
        out.emplace(sid, std::move(f));
    }
    return out;
}

// --- residual-attack-surface report ---

SurfaceReport
buildSurfaceReport(TargetSetAnalysis& analysis, uint32_t max_targets)
{
    SurfaceReport rep;
    const ir::Module& m = analysis.module();
    rep.functions = static_cast<uint32_t>(m.numFunctions());
    rep.address_taken =
        static_cast<uint32_t>(analysis.addressTaken().size());
    rep.max_targets = max_targets;

    const auto& sites = analysis.sites();
    uint64_t size_sum = 0;
    for (const auto& [sid, st] : sites) {
        ++rep.icall_sites;
        if (st.is_asm)
            ++rep.asm_sites;
        if (st.complete()) {
            ++rep.complete_sites;
            uint32_t sz = static_cast<uint32_t>(st.targets.size());
            ++rep.set_size_hist[sz];
            size_sum += sz;
            if (!st.is_asm && sz > 0 && sz <= max_targets)
                ++rep.switchpoline_eligible;
        } else {
            ++rep.incomplete_sites;
        }
    }
    if (rep.complete_sites > 0)
        rep.avg_targets = static_cast<double>(size_sum) /
                          static_cast<double>(rep.complete_sites);

    // The pool an unconstrained indirect branch ranges over.
    const double pool =
        static_cast<double>(std::max<uint32_t>(1, rep.address_taken));

    const harden::DefenseConfig configs[] = {
        harden::DefenseConfig::none(),
        harden::DefenseConfig::retpolinesOnly(),
        harden::DefenseConfig::retRetpolinesOnly(),
        harden::DefenseConfig::lviOnly(),
        harden::DefenseConfig::all(),
        harden::DefenseConfig::jumpSwitches(),
    };
    for (const harden::DefenseConfig& cfg : configs) {
        SurfaceDefenseRow row;
        row.defense = cfg.name();
        bool fwd_protected =
            harden::forwardSchemeFor(cfg) != ir::FwdScheme::kNone;
        double allowed_sum = 0;
        for (const auto& [sid, st] : sites) {
            bool prot = fwd_protected && !st.is_asm;
            if (prot)
                ++row.protected_icalls;
            else
                ++row.unprotected_icalls;
            // A protected, complete site is architecturally confined
            // to its static set; anything else may speculatively
            // reach the whole address-taken pool.
            double allowed =
                (prot && st.complete())
                    ? static_cast<double>(st.targets.size())
                    : pool;
            allowed_sum += allowed;
            row.residual_target_pairs +=
                static_cast<uint64_t>(allowed);
        }
        row.air = sites.empty()
                      ? 1.0
                      : 1.0 - allowed_sum /
                                  (pool * static_cast<double>(
                                              sites.size()));
        rep.defenses.push_back(std::move(row));
    }
    return rep;
}

std::string
renderSurfaceText(const SurfaceReport& rep)
{
    std::ostringstream os;
    os << "== residual attack surface: " << rep.module_name << " ==\n";
    os << "functions:            " << rep.functions << "\n";
    os << "address-taken pool:   " << rep.address_taken << "\n";
    os << "icall sites:          " << rep.icall_sites << " ("
       << rep.asm_sites << " asm)\n";
    os << "complete sites:       " << rep.complete_sites << "\n";
    os << "incomplete sites:     " << rep.incomplete_sites << "\n";
    os << "avg targets/site:     " << std::fixed << std::setprecision(2)
       << rep.avg_targets << " (complete sites)\n";
    os << "switchpoline-eligible:" << std::setw(6)
       << rep.switchpoline_eligible << " (complete, 1.."
       << rep.max_targets << " targets)\n";
    os << "\nset-size distribution (complete sites):\n";
    for (const auto& [sz, count] : rep.set_size_hist)
        os << "  |set| = " << std::setw(4) << sz << " : " << count
           << " sites\n";
    os << "\nper-defense residual surface:\n";
    os << "  " << std::left << std::setw(34) << "defense"
       << std::right << std::setw(10) << "protected"
       << std::setw(12) << "unprotected"
       << std::setw(16) << "target pairs"
       << std::setw(8) << "AIR" << "\n";
    for (const SurfaceDefenseRow& row : rep.defenses) {
        os << "  " << std::left << std::setw(34) << row.defense
           << std::right << std::setw(10) << row.protected_icalls
           << std::setw(12) << row.unprotected_icalls
           << std::setw(16) << row.residual_target_pairs
           << std::setw(8) << std::fixed << std::setprecision(4)
           << row.air << "\n";
    }
    return os.str();
}

Json
toJson(const SurfaceReport& rep)
{
    Json hist = Json::object();
    for (const auto& [sz, count] : rep.set_size_hist)
        hist.set(std::to_string(sz), count);
    Json defenses = Json::array();
    for (const SurfaceDefenseRow& row : rep.defenses) {
        Json d = Json::object();
        d.set("defense", row.defense);
        d.set("protected_icalls", row.protected_icalls);
        d.set("unprotected_icalls", row.unprotected_icalls);
        d.set("residual_target_pairs", row.residual_target_pairs);
        d.set("air", row.air);
        defenses.push(std::move(d));
    }
    Json j = Json::object();
    j.set("bench", "surface");
    j.set("module", rep.module_name);
    j.set("functions", rep.functions);
    j.set("address_taken", rep.address_taken);
    j.set("icall_sites", rep.icall_sites);
    j.set("asm_sites", rep.asm_sites);
    j.set("complete_sites", rep.complete_sites);
    j.set("incomplete_sites", rep.incomplete_sites);
    j.set("avg_targets", rep.avg_targets);
    j.set("max_targets", rep.max_targets);
    j.set("switchpoline_eligible", rep.switchpoline_eligible);
    j.set("set_size_hist", std::move(hist));
    j.set("defenses", std::move(defenses));
    return j;
}

} // namespace pibe::check
