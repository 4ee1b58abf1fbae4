#include "uarch/decoded_module.h"

#include <algorithm>

#include "ir/printer.h"

namespace pibe::uarch {

namespace {

/**
 * Dense switch tables trade memory for O(1) dispatch; cap the waste
 * so a sparse value set (e.g. {0, 1 << 20}) falls back to binary
 * search instead of allocating a huge mostly-default table.
 */
constexpr uint64_t kMaxDenseRange = 1024;

bool
denseWorthIt(uint64_t range, size_t cases)
{
    return range <= kMaxDenseRange && range <= 4 * cases;
}

/**
 * Index into PIBE_SPEC_BIN_KINDS order when `op` is a specialized
 * plain binop (kBinAdd..kBinGe), else -1.
 */
int
specIndexOfOp(DecodedOp op)
{
    const int i = static_cast<int>(op) -
                  static_cast<int>(DecodedOp::kBinAdd);
    return (i >= 0 && i < static_cast<int>(kNumSpecBinKinds)) ? i : -1;
}

} // namespace

const char*
fusedFamilyName(FusedFamily family)
{
    switch (family) {
      case FusedFamily::kCmpBr: return "cmp+condbr";
      case FusedFamily::kConstBin: return "const+binop";
      case FusedFamily::kBinConst: return "binop+const";
      case FusedFamily::kMoveBin: return "move+binop";
      case FusedFamily::kFrameLoadBin: return "frameload+binop";
      case FusedFamily::kConstCall: return "const+call";
      case FusedFamily::kMoveCall: return "move+call";
      case FusedFamily::kFrameLoadCall: return "frameload+call";
      default: return "?";
    }
}

DecodedModule::DecodedModule(const ir::Module& module, bool fuse)
    : module_(module), layout_(module)
{
    const size_t num_funcs = module.numFunctions();
    funcs_.resize(num_funcs);

    // Pass 1: per-function code bases and one BlockTarget per block.
    // Code indices mirror the layout's flat offset table exactly: the
    // i-th instruction of a function (in block order) is code entry
    // code_base[f] + i.
    std::vector<uint32_t> code_base(num_funcs, 0);
    std::vector<uint32_t> target_base(num_funcs, 0);
    uint32_t code_cursor = 0;
    uint32_t target_cursor = 0;
    for (const ir::Function& f : module.functions()) {
        code_base[f.id] = code_cursor;
        target_base[f.id] = target_cursor;
        code_cursor += static_cast<uint32_t>(f.instructionCount());
        target_cursor += static_cast<uint32_t>(f.blocks.size());
    }
    code_.reserve(code_cursor);
    aux_.reserve(code_cursor);
    targets_.resize(target_cursor);

    for (const ir::Function& f : module.functions()) {
        const auto& block_first = layout_.blockFirstInst(f.id);
        const auto& offsets = layout_.instOffsets(f.id);
        const uint64_t base = layout_.funcBase(f.id);
        for (ir::BlockId b = 0; b < f.blocks.size(); ++b) {
            BlockTarget& bt = targets_[target_base[f.id] + b];
            bt.code_index = code_base[f.id] + block_first[b];
            bt.start_addr = base + offsets[block_first[b]];
            bt.end_addr = base + offsets[block_first[b + 1]];
        }

        DecodedFunction& df = funcs_[f.id];
        df.is_declaration = f.isDeclaration();
        df.num_params = f.num_params;
        df.num_regs = f.num_regs;
        df.frame_size = f.frame_size;
        df.base_addr = base;
        df.func = &f;
        if (!df.is_declaration)
            df.entry = targets_[target_base[f.id]];
    }

    // Pass 2: flatten instructions, gathering the static opcode and
    // intra-block digram histogram the fusion set is selected from.
    for (const ir::Function& f : module.functions()) {
        const auto& block_first = layout_.blockFirstInst(f.id);
        const auto& offsets = layout_.instOffsets(f.id);
        const uint64_t base = layout_.funcBase(f.id);
        uint32_t flat = 0;
        for (ir::BlockId b = 0; b < f.blocks.size(); ++b) {
            const uint64_t block_end =
                base + offsets[block_first[b + 1]];
            int prev_op = -1;
            for (const ir::Instruction& inst : f.blocks[b].insts) {
                const int op_idx = static_cast<int>(inst.op);
                ++decode_stats_.op_count[op_idx];
                if (prev_op >= 0)
                    ++decode_stats_.digram[prev_op][op_idx];
                prev_op = op_idx;

                DecodedInst d;
                DecodedAux x;
                d.op = decodedOpOf(inst.op);
                d.bin = inst.bin;
                d.fwd_scheme = inst.fwd_scheme;
                d.ret_scheme = inst.ret_scheme;
                d.dst = inst.dst;
                d.a = inst.a;
                d.b = inst.b;
                d.imm = inst.imm;
                d.addr = base + offsets[flat];
                // Instructions are laid out back to back, so the next
                // flat offset (or the end sentinel) is addr + size.
                d.next_addr = base + offsets[flat + 1];
                d.global = inst.global;
                x.block_end = block_end;
                x.callee = inst.callee;
                x.site_id = inst.site_id;

                switch (inst.op) {
                  case ir::Opcode::kBinOp: {
                    // Operator specialization: all kinds except the
                    // zero-divisor-checked kDiv/kRem dispatch
                    // straight to a kind-specific handler.
                    const int si = specBinIndex(inst.bin);
                    if (si >= 0)
                        d.op = familyOp(DecodedOp::kBinAdd, si);
                    break;
                  }
                  case ir::Opcode::kCall: {
                    const ir::Function& callee =
                        module.func(inst.callee);
                    PIBE_ASSERT(inst.args.size() == callee.num_params,
                                "call arity mismatch for ",
                                callee.name, " in ", f.name);
                    d.callee_is_decl = callee.isDeclaration();
                    break;
                  }
                  case ir::Opcode::kICall:
                    if (inst.fwd_scheme == ir::FwdScheme::kJumpSwitch) {
                        // Sites sharing a site_id share JumpSwitch
                        // runtime state, exactly like the map the
                        // dense slots replace.
                        auto [it, inserted] =
                            js_slot_of_site_.try_emplace(
                                inst.site_id, num_js_slots_);
                        if (inserted)
                            ++num_js_slots_;
                        x.js_slot = it->second;
                    }
                    break;
                  case ir::Opcode::kBr:
                    d.t0 = target_base[f.id] + inst.t0;
                    break;
                  case ir::Opcode::kCondBr:
                    d.t0 = target_base[f.id] + inst.t0;
                    d.t1 = target_base[f.id] + inst.t1;
                    break;
                  case ir::Opcode::kSwitch: {
                    d.t0 = target_base[f.id] + inst.t0;
                    // Collect cases, keeping only the first
                    // occurrence of a duplicate value (the linear
                    // scan's first-match semantics).
                    std::vector<SwitchCase> cases;
                    cases.reserve(inst.case_values.size());
                    for (size_t c = 0; c < inst.case_values.size();
                         ++c) {
                        const int64_t v = inst.case_values[c];
                        const bool seen = std::any_of(
                            cases.begin(), cases.end(),
                            [v](const SwitchCase& sc) {
                                return sc.value == v;
                            });
                        if (!seen) {
                            cases.push_back(
                                {v, target_base[f.id] +
                                        inst.case_targets[c]});
                        }
                    }
                    std::sort(cases.begin(), cases.end(),
                              [](const SwitchCase& x,
                                 const SwitchCase& y) {
                                  return x.value < y.value;
                              });
                    if (!cases.empty()) {
                        const int64_t lo = cases.front().value;
                        const int64_t hi = cases.back().value;
                        const uint64_t range =
                            static_cast<uint64_t>(hi) -
                            static_cast<uint64_t>(lo) + 1;
                        if (denseWorthIt(range, cases.size())) {
                            d.switch_dense = true;
                            d.imm = lo;
                            x.sw_begin = static_cast<uint32_t>(
                                dense_targets_.size());
                            x.sw_count =
                                static_cast<uint32_t>(range);
                            dense_targets_.resize(
                                dense_targets_.size() + range,
                                kNoIndex);
                            for (const SwitchCase& sc : cases) {
                                dense_targets_
                                    [x.sw_begin +
                                     static_cast<uint64_t>(sc.value) -
                                     static_cast<uint64_t>(lo)] =
                                        sc.target;
                            }
                        }
                    }
                    if (!d.switch_dense) {
                        x.sw_begin = static_cast<uint32_t>(
                            switch_cases_.size());
                        x.sw_count =
                            static_cast<uint32_t>(cases.size());
                        switch_cases_.insert(switch_cases_.end(),
                                             cases.begin(),
                                             cases.end());
                    }
                    break;
                  }
                  default:
                    break;
                }

                if (!inst.args.empty()) {
                    x.args_begin =
                        static_cast<uint32_t>(args_pool_.size());
                    x.args_count =
                        static_cast<uint32_t>(inst.args.size());
                    args_pool_.insert(args_pool_.end(),
                                      inst.args.begin(),
                                      inst.args.end());
                }

                code_.push_back(d);
                aux_.push_back(x);
                ++flat;
            }
        }
    }

    // Pass 3: superinstruction fusion, block by block. Branch targets
    // are block starts by construction, so a pair fused strictly
    // inside one block can never have its second instruction targeted
    // by a branch — no split logic is needed, only the block bound.
    if (fuse) {
        for (const ir::Function& f : module.functions()) {
            if (f.isDeclaration())
                continue;
            const auto& block_first = layout_.blockFirstInst(f.id);
            for (ir::BlockId b = 0; b < f.blocks.size(); ++b) {
                fuseBlock(code_base[f.id] + block_first[b],
                          code_base[f.id] + block_first[b + 1]);
            }
        }
    }
}

/**
 * Greedy left-to-right fusion over one block's code slots. A fused
 * pair rewrites the *first* slot into a superinstruction and leaves
 * the second slot (and the whole cold aux array) untouched (handlers
 * step pc by 2 over it), so code indices and the addr/next_addr/
 * block_end fields a call-resume refetch reads stay exactly as pass 2
 * built them.
 *
 * Operand packing per family (first = F, second = S):
 *  - CmpBr<K>:      dst/a/b from F (the compare); t0/t1 copied from
 *                   S; the PHT/fetch address of the branch is F's
 *                   next_addr (== S.addr).
 *  - ConstBinA<K>:  c/imm = F's dst/imm; dst/a/b/bin = S's. Chosen
 *                   when S.a == F.dst (the folded operand is `a`).
 *  - ConstBinB<K>:  same, chosen when S.b == F.dst.
 *  - BinConst<K>:   dst/a/b/bin stay F's; c/imm = S's dst/imm.
 *  - MoveBin:       c = F.dst, imm = F.a (move source register);
 *                   dst/a/b/bin = S's (generic evalBin — accepts
 *                   kDiv/kRem too, the handler keeps their checks).
 *  - FrameLoadBin:  c = F.dst, imm stays F's frame slot;
 *                   dst/a/b/bin = S's.
 *  - *Call:         only the opcode changes; the handler executes
 *                   F's fields from the fused slot and reads every
 *                   call field from the untouched second slot (and
 *                   its aux entry).
 */
void
DecodedModule::fuseBlock(uint32_t begin, uint32_t end)
{
    uint32_t i = begin;
    while (i + 1 < end) {
        DecodedInst& first = code_[i];
        const DecodedInst& second = code_[i + 1];
        FusedFamily fam = FusedFamily::kCount;
        const int sb = specIndexOfOp(second.op);

        switch (first.op) {
          case DecodedOp::kConst:
            if (sb >= 0 &&
                (second.a == first.dst || second.b == first.dst)) {
                const bool fold_a = second.a == first.dst;
                first.c = first.dst;
                first.dst = second.dst;
                first.a = second.a;
                first.b = second.b;
                first.bin = second.bin;
                first.op = familyOp(fold_a ? DecodedOp::kConstBinAAdd
                                           : DecodedOp::kConstBinBAdd,
                                   sb);
                fam = FusedFamily::kConstBin;
            } else if (second.op == DecodedOp::kCall) {
                first.op = DecodedOp::kConstCall;
                fam = FusedFamily::kConstCall;
            }
            break;
          case DecodedOp::kMove:
            if (sb >= 0 || second.op == DecodedOp::kBinOp) {
                first.c = first.dst;
                first.imm = static_cast<int64_t>(first.a);
                first.dst = second.dst;
                first.a = second.a;
                first.b = second.b;
                first.bin = second.bin;
                first.op = DecodedOp::kMoveBin;
                fam = FusedFamily::kMoveBin;
            } else if (second.op == DecodedOp::kCall) {
                first.op = DecodedOp::kMoveCall;
                fam = FusedFamily::kMoveCall;
            }
            break;
          case DecodedOp::kFrameLoad:
            if (sb >= 0 || second.op == DecodedOp::kBinOp) {
                first.c = first.dst;
                // first.imm already holds the frame slot.
                first.dst = second.dst;
                first.a = second.a;
                first.b = second.b;
                first.bin = second.bin;
                first.op = DecodedOp::kFrameLoadBin;
                fam = FusedFamily::kFrameLoadBin;
            } else if (second.op == DecodedOp::kCall) {
                first.op = DecodedOp::kFrameLoadCall;
                fam = FusedFamily::kFrameLoadCall;
            }
            break;
          default: {
            const int sa = specIndexOfOp(first.op);
            if (sa >= kFirstCmpSpecIndex &&
                second.op == DecodedOp::kCondBr &&
                second.a == first.dst) {
                first.t0 = second.t0;
                first.t1 = second.t1;
                first.op = familyOp(DecodedOp::kCmpBrEq,
                                    sa - kFirstCmpSpecIndex);
                fam = FusedFamily::kCmpBr;
            } else if (sa >= 0 && second.op == DecodedOp::kConst) {
                first.c = second.dst;
                first.imm = second.imm;
                first.op = familyOp(DecodedOp::kBinConstAdd, sa);
                fam = FusedFamily::kBinConst;
            }
            break;
          }
        }

        if (fam != FusedFamily::kCount) {
            ++decode_stats_.fused_sites[static_cast<size_t>(fam)];
            ++decode_stats_.fused_pairs;
            i += 2;
        } else {
            ++i;
        }
    }
}

size_t
DecodedModule::decodedBytes() const
{
    return code_.size() * sizeof(DecodedInst) +
           aux_.size() * sizeof(DecodedAux) +
           targets_.size() * sizeof(BlockTarget) +
           args_pool_.size() * sizeof(ir::Reg) +
           switch_cases_.size() * sizeof(SwitchCase) +
           dense_targets_.size() * sizeof(uint32_t) +
           funcs_.size() * sizeof(DecodedFunction);
}

Json
decodeStatsJson(
    const DecodedModule& decoded,
    const std::array<uint64_t, kNumFusedFamilies>& dynamic_execs)
{
    const DecodeStats& ds = decoded.decodeStats();
    auto name = [](size_t op) {
        return std::string(ir::opcodeName(static_cast<ir::Opcode>(op)));
    };
    Json opcodes = Json::object();
    Json digrams = Json::object();
    for (size_t a = 0; a < kNumIrOpcodes; ++a) {
        if (ds.op_count[a] > 0)
            opcodes.set(name(a), ds.op_count[a]);
        for (size_t b = 0; b < kNumIrOpcodes; ++b)
            if (ds.digram[a][b] > 0)
                digrams.set(name(a) + "+" + name(b), ds.digram[a][b]);
    }
    Json families = Json::array();
    for (size_t f = 0; f < kNumFusedFamilies; ++f) {
        Json family = Json::object();
        family.set("family",
                   fusedFamilyName(static_cast<FusedFamily>(f)));
        family.set("static_sites", ds.fused_sites[f]);
        family.set("dynamic_execs", dynamic_execs[f]);
        families.push(std::move(family));
    }
    Json j = Json::object();
    j.set("decoded_insts", decoded.code().size());
    j.set("decoded_bytes", decoded.decodedBytes());
    j.set("opcodes", std::move(opcodes));
    j.set("digrams", std::move(digrams));
    j.set("fused_families", std::move(families));
    j.set("fused_static_pairs", ds.fused_pairs);
    return j;
}

} // namespace pibe::uarch
