/**
 * @file
 * The pre-decoded execution image: everything the interpreter hot
 * loop used to recompute per instruction, computed once per module.
 *
 * Decoding flattens each function's blocks into one contiguous
 * DecodedInst stream and bakes in:
 *  - the instruction's byte address, encoded size, and the end
 *    address of its containing block (fetch ranges become two loads);
 *  - resolved callee ids with declaration flags (kCall) and a flat
 *    per-function table for dynamic targets (kICall);
 *  - branch targets as {code index, block start, block end} triples,
 *    so taken branches are a single indexed jump plus fetch;
 *  - switch dispatch lowered to either a dense table (contiguous case
 *    values) or a value-sorted array for binary search — replacing
 *    the O(cases) linear scan — while preserving the original
 *    first-match semantics for duplicate case values;
 *  - a dense JumpSwitch state index (site_id -> slot) replacing the
 *    hot-path unordered_map lookup;
 *  - call arguments as (offset, count) windows into one shared pool.
 *
 * v3 adds decode-time superinstruction fusion and operand
 * specialization: instructions carry a DecodedOp (a superset of
 * ir::Opcode) instead of the IR opcode. Plain binops are specialized
 * per BinKind (no second dispatch on the operator), and the dominant
 * dynamic digrams — measured on the kernel syscall workload, where
 * const+binop and binop+const together are ~75% of all executed
 * instructions — are fused into single-dispatch superinstructions:
 * cmp+condbr, const+binop (const-folded immediate), binop+const,
 * move+binop, frameload+binop, and const/move/frameload+call (the
 * call argument-window setup). Fusion never crosses a block boundary,
 * so a branch can never land in the middle of a fused pair (branch
 * targets are block starts by construction), and the second slot of a
 * fused pair is left intact in the stream: code indices are
 * unchanged, and call-resume refetches keep reading the original
 * addr/block_end fields. The opcode and digram histogram gathered
 * during decode (decodeStats()) is the evidence the fusion set was
 * chosen from and the observability hook for future candidates.
 *
 * A DecodedModule is immutable after construction and holds no
 * runtime state, so one instance can be shared by any number of
 * simulators (the engine shares one across every measurement of an
 * image).
 * Decoding only reads the module and the layout; it does not depend
 * on CostParams, so the cache key is the module alone.
 *
 * The decoded program is an *encoding*, not a semantic change: every
 * address, cost, predictor index, and counter the interpreter derives
 * from it is bit-identical to what the original per-instruction
 * lookups produced (tests/test_differential.cc enforces this against
 * golden stats recorded before the rewrite). Fused handlers execute
 * both original instructions' effects in original order and count
 * *original* instructions, never superinstructions.
 */
#ifndef PIBE_UARCH_DECODED_MODULE_H_
#define PIBE_UARCH_DECODED_MODULE_H_

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "analysis/layout.h"
#include "ir/module.h"
#include "support/json.h"

namespace pibe::uarch {

/** Sentinel for "no index" in decoded tables. */
constexpr uint32_t kNoIndex = 0xffffffffu;

/** Number of ir::Opcode values (histogram dimensions). */
constexpr size_t kNumIrOpcodes = 15;

/**
 * BinKinds that get their own specialized decoded opcodes. kDiv and
 * kRem are excluded: their zero-divisor side exit keeps them on the
 * generic evalBin path. Order defines the per-family opcode layout;
 * the six compare kinds come last so cmp+condbr fusion can test a
 * contiguous range.
 */
#define PIBE_SPEC_BIN_KINDS(X)                                        \
    X(Add) X(Sub) X(Mul) X(And) X(Or) X(Xor) X(Shl) X(Shr)            \
    X(Eq) X(Ne) X(Lt) X(Le) X(Gt) X(Ge)

/** The compare subset of PIBE_SPEC_BIN_KINDS (cmp+condbr fusion). */
#define PIBE_CMP_BIN_KINDS(X) X(Eq) X(Ne) X(Lt) X(Le) X(Gt) X(Ge)

/**
 * Decoded-stream opcodes: the 15 ir::Opcode values (same order, so
 * unspecialized instructions map by value), BinKind-specialized plain
 * binops, and the fused superinstructions. Every family occupies a
 * contiguous range so decode can select a variant by arithmetic.
 */
enum class DecodedOp : uint8_t {
    // 1:1 mirrors of ir::Opcode, in ir::Opcode order.
    kConst,
    kMove,
    kBinOp, ///< Generic fallback (kDiv/kRem or unspecialized).
    kFuncAddr,
    kLoad,
    kStore,
    kFrameLoad,
    kFrameStore,
    kCall,
    kICall,
    kRet,
    kBr,
    kCondBr,
    kSwitch,
    kSink,
// Specialized plain binops: dst = a <K> b, no operator dispatch.
#define PIBE_D(K) kBin##K,
    PIBE_SPEC_BIN_KINDS(PIBE_D)
#undef PIBE_D
// Fused cmp+condbr: dst = a <K> b; branch on the result.
#define PIBE_D(K) kCmpBr##K,
    PIBE_CMP_BIN_KINDS(PIBE_D)
#undef PIBE_D
// Fused const+binop, const value is operand a: c = imm; dst = imm<K>b.
#define PIBE_D(K) kConstBinA##K,
    PIBE_SPEC_BIN_KINDS(PIBE_D)
#undef PIBE_D
// Fused const+binop, const value is operand b: c = imm; dst = a<K>imm.
#define PIBE_D(K) kConstBinB##K,
    PIBE_SPEC_BIN_KINDS(PIBE_D)
#undef PIBE_D
// Fused binop+const: dst = a <K> b; then c = imm.
#define PIBE_D(K) kBinConst##K,
    PIBE_SPEC_BIN_KINDS(PIBE_D)
#undef PIBE_D
    kMoveBin,       ///< c = regs[imm]; dst = a <bin> b (generic bin).
    kFrameLoadBin,  ///< c = frame[imm]; dst = a <bin> b (generic bin).
    kConstCall,     ///< dst = imm; then the kCall at the next slot.
    kMoveCall,      ///< dst = regs[a]; then the kCall at the next slot.
    kFrameLoadCall, ///< dst = frame[imm]; then the next-slot kCall.
    kCount,
};

constexpr size_t kNumDecodedOps = static_cast<size_t>(DecodedOp::kCount);
constexpr size_t kNumSpecBinKinds = 14;
constexpr size_t kNumCmpBinKinds = 6;

static_assert(static_cast<int>(DecodedOp::kSink) ==
                  static_cast<int>(ir::Opcode::kSink),
              "DecodedOp must mirror ir::Opcode for the first 15 ops");
static_assert(static_cast<int>(DecodedOp::kBinGe) -
                      static_cast<int>(DecodedOp::kBinAdd) ==
                  kNumSpecBinKinds - 1,
              "specialized binop family must be contiguous");
static_assert(static_cast<int>(DecodedOp::kCmpBrGe) -
                      static_cast<int>(DecodedOp::kCmpBrEq) ==
                  kNumCmpBinKinds - 1,
              "cmp+condbr family must be contiguous");

/** The decoded opcode of an unspecialized, unfused IR instruction. */
constexpr DecodedOp
decodedOpOf(ir::Opcode op)
{
    return static_cast<DecodedOp>(op);
}

/**
 * Index of a BinKind within PIBE_SPEC_BIN_KINDS order, or -1 when the
 * kind has no specialized opcode (kDiv / kRem).
 */
constexpr int
specBinIndex(ir::BinKind k)
{
    switch (k) {
      case ir::BinKind::kAdd: return 0;
      case ir::BinKind::kSub: return 1;
      case ir::BinKind::kMul: return 2;
      case ir::BinKind::kAnd: return 3;
      case ir::BinKind::kOr:  return 4;
      case ir::BinKind::kXor: return 5;
      case ir::BinKind::kShl: return 6;
      case ir::BinKind::kShr: return 7;
      case ir::BinKind::kEq:  return 8;
      case ir::BinKind::kNe:  return 9;
      case ir::BinKind::kLt:  return 10;
      case ir::BinKind::kLe:  return 11;
      case ir::BinKind::kGt:  return 12;
      case ir::BinKind::kGe:  return 13;
      default: return -1;
    }
}

/** First compare kind's index within PIBE_SPEC_BIN_KINDS order. */
constexpr int kFirstCmpSpecIndex = 8;

/** Pick the opcode `spec_index` slots into a contiguous family. */
constexpr DecodedOp
familyOp(DecodedOp family_base, int spec_index)
{
    return static_cast<DecodedOp>(static_cast<int>(family_base) +
                                  spec_index);
}

/** True for superinstructions (two original instructions per slot). */
constexpr bool
isFusedOp(DecodedOp op)
{
    return op >= DecodedOp::kCmpBrEq && op < DecodedOp::kCount;
}

/**
 * The fused superinstruction families, for per-family decode-site and
 * dynamic-execution counters (RunStats::fused).
 */
enum class FusedFamily : uint8_t {
    kCmpBr,
    kConstBin,
    kBinConst,
    kMoveBin,
    kFrameLoadBin,
    kConstCall,
    kMoveCall,
    kFrameLoadCall,
    kCount,
};

constexpr size_t kNumFusedFamilies =
    static_cast<size_t>(FusedFamily::kCount);

const char* fusedFamilyName(FusedFamily family);

/** Family of a fused opcode (op must satisfy isFusedOp). */
constexpr FusedFamily
fusedFamilyOf(DecodedOp op)
{
    if (op >= DecodedOp::kCmpBrEq && op <= DecodedOp::kCmpBrGe)
        return FusedFamily::kCmpBr;
    if (op >= DecodedOp::kConstBinAAdd && op <= DecodedOp::kConstBinBGe)
        return FusedFamily::kConstBin;
    if (op >= DecodedOp::kBinConstAdd && op <= DecodedOp::kBinConstGe)
        return FusedFamily::kBinConst;
    switch (op) {
      case DecodedOp::kMoveBin: return FusedFamily::kMoveBin;
      case DecodedOp::kFrameLoadBin: return FusedFamily::kFrameLoadBin;
      case DecodedOp::kConstCall: return FusedFamily::kConstCall;
      case DecodedOp::kMoveCall: return FusedFamily::kMoveCall;
      case DecodedOp::kFrameLoadCall:
        return FusedFamily::kFrameLoadCall;
      default: return FusedFamily::kCount;
    }
}

/**
 * Static decode-time statistics: the opcode and intra-block digram
 * histogram the fusion set is selected from, and how many sites each
 * fusion rule actually rewrote. `pibe measure --decode-stats` reports
 * these (text + JSON) so fusion coverage is observable and future
 * superinstruction candidates are chosen from data.
 */
struct DecodeStats
{
    /** Static occurrence count per ir::Opcode. */
    std::array<uint64_t, kNumIrOpcodes> op_count{};
    /** digram[a][b]: adjacent (a then b) pairs within one block. */
    std::array<std::array<uint64_t, kNumIrOpcodes>, kNumIrOpcodes>
        digram{};
    /** Fusion sites rewritten, per superinstruction family. */
    std::array<uint64_t, kNumFusedFamilies> fused_sites{};
    /** Total fused pairs (sum of fused_sites). */
    uint64_t fused_pairs = 0;
};

/** A branch destination: where to continue and what to fetch. */
struct BlockTarget
{
    uint32_t code_index = kNoIndex; ///< First DecodedInst of the block.
    uint64_t start_addr = 0;        ///< Block start (fetch + BTB).
    uint64_t end_addr = 0;          ///< One past the block's last byte.
};

/** One switch case prepared for binary search (sorted by value). */
struct SwitchCase
{
    int64_t value = 0;
    uint32_t target = kNoIndex; ///< BlockTarget index.
};

/**
 * One flattened instruction — the *hot* half. Field meaning depends
 * on `op` exactly as in ir::Instruction for unfused opcodes; fused
 * opcodes pack both original instructions' operands (see the fusion
 * rules in decoded_module.cc). `addr` and `next_addr` are never
 * repurposed by fusion: call-resume refetches read them from whatever
 * slot the resume pc lands on.
 *
 * The struct is exactly one cache line and 64-byte aligned: every
 * field the frequent handlers (const/move/binop/mem/branch and all
 * fused families) touch sits in one line, the stream never straddles
 * lines, and pointer/index conversions (`inst - code`, `code + pc`)
 * compile to shifts instead of a divide/multiply by a non-power-of-2
 * stride. Everything only the rare opcodes need (call/switch operand
 * tables, profiling site ids, the resume-refetch block end) lives in
 * the parallel cold DecodedAux array, indexed by the same flat code
 * index.
 */
struct alignas(64) DecodedInst
{
    DecodedOp op = DecodedOp::kConst;
    ir::BinKind bin = ir::BinKind::kAdd;
    bool callee_is_decl = false; ///< kCall: callee has no body.
    bool switch_dense = false;   ///< kSwitch: dense-table dispatch.
    ir::FwdScheme fwd_scheme = ir::FwdScheme::kNone;
    ir::RetScheme ret_scheme = ir::RetScheme::kNone;

    ir::Reg dst = ir::kNoReg;
    ir::Reg a = ir::kNoReg;
    ir::Reg b = ir::kNoReg;
    /** Fused pairs: the other instruction's destination register
     *  (kNoReg when unused). */
    ir::Reg c = ir::kNoReg;
    int64_t imm = 0; ///< kSwitch dense mode: minimum case value.
                     ///< kMoveBin: the move's source register.

    uint64_t addr = 0;      ///< Byte address of this instruction.
    uint64_t next_addr = 0; ///< addr + instByteSize (return address;
                            ///< for kCmpBr* also the condbr's addr).

    uint32_t t0 = kNoIndex; ///< BlockTarget: kBr / kCondBr-true /
                            ///< kSwitch default / kCmpBr*-true.
    uint32_t t1 = kNoIndex; ///< BlockTarget: kCondBr/kCmpBr*-false.
    ir::GlobalId global = 0;
};

static_assert(sizeof(DecodedInst) == 64,
              "DecodedInst must stay one cache line; move new fields "
              "to DecodedAux");

/**
 * The cold half of a decoded instruction: operands of the rare
 * opcodes (kCall/kICall/kFuncAddr/kSwitch) plus profiling and
 * resume-refetch metadata, in a parallel array sharing the hot
 * stream's flat index. Keeping these out of DecodedInst is what lets
 * the hot slot fit one cache line; the rare handlers pay one extra
 * indexed load here.
 */
struct DecodedAux
{
    uint64_t block_end = 0; ///< End of the containing block.
    ir::FuncId callee = ir::kInvalidFunc; ///< kCall / kFuncAddr.
    uint32_t args_begin = 0; ///< Into DecodedModule::argsPool().
    uint32_t args_count = 0;
    uint32_t sw_begin = 0; ///< Into switchCases() or denseTargets().
    uint32_t sw_count = 0;
    uint32_t js_slot = kNoIndex; ///< Dense JumpSwitch state slot.
    ir::SiteId site_id = ir::kNoSite;
};

/** Per-function decode results (indexed by FuncId). */
struct DecodedFunction
{
    bool is_declaration = true;
    uint32_t num_params = 0;
    uint32_t num_regs = 0;
    uint32_t frame_size = 0;
    BlockTarget entry; ///< Block 0: code index + fetch range.
    uint64_t base_addr = 0;
    const ir::Function* func = nullptr; ///< Names for diagnostics.
};

class DecodedModule
{
  public:
    /**
     * Bump when the decoded encoding could change observable stats;
     * hashed into measurement artifact digests so stale cached
     * measurements never alias a decode change.
     * v2: DecodedOp specialization + superinstruction fusion (and the
     * fused-execution counters in RunStats/measurement artifacts).
     */
    static constexpr uint32_t kFormatVersion = 2;

    /**
     * Decode `module` (which must outlive this object). `fuse` turns
     * superinstruction fusion off for dispatch-cost experiments (the
     * microbench's per-digram harness); every production caller uses
     * the default.
     */
    explicit DecodedModule(const ir::Module& module, bool fuse = true);

    const ir::Module& module() const { return module_; }
    const analysis::CodeLayout& layout() const { return layout_; }

    const DecodedFunction& func(ir::FuncId f) const
    {
        PIBE_ASSERT(f < funcs_.size(), "DecodedModule: bad FuncId");
        return funcs_[f];
    }
    size_t numFunctions() const { return funcs_.size(); }

    const std::vector<DecodedInst>& code() const { return code_; }
    /** Cold per-instruction metadata, parallel to code(). */
    const std::vector<DecodedAux>& aux() const { return aux_; }
    const std::vector<BlockTarget>& targets() const { return targets_; }
    const std::vector<ir::Reg>& argsPool() const { return args_pool_; }
    const std::vector<SwitchCase>& switchCases() const
    {
        return switch_cases_;
    }
    const std::vector<uint32_t>& denseTargets() const
    {
        return dense_targets_;
    }

    /** Number of dense JumpSwitch state slots to allocate. */
    uint32_t numJsSlots() const { return num_js_slots_; }

    /** Dense slot of a JumpSwitch site id (kNoIndex if not one). */
    uint32_t
    jsSlotOf(ir::SiteId site) const
    {
        auto it = js_slot_of_site_.find(site);
        return it == js_slot_of_site_.end() ? kNoIndex : it->second;
    }

    /** Approximate bytes held by the decoded tables (profiling). */
    size_t decodedBytes() const;

    /** Opcode/digram histogram and fusion coverage of this decode. */
    const DecodeStats& decodeStats() const { return decode_stats_; }

  private:
    void fuseBlock(uint32_t begin, uint32_t end);

    const ir::Module& module_;
    analysis::CodeLayout layout_;
    std::vector<DecodedFunction> funcs_;
    std::vector<DecodedInst> code_;
    std::vector<DecodedAux> aux_; ///< Parallel to code_.
    std::vector<BlockTarget> targets_;
    std::vector<ir::Reg> args_pool_;
    std::vector<SwitchCase> switch_cases_;
    std::vector<uint32_t> dense_targets_; ///< BlockTarget index or
                                          ///< kNoIndex (= default).
    std::unordered_map<ir::SiteId, uint32_t> js_slot_of_site_;
    uint32_t num_js_slots_ = 0;
    DecodeStats decode_stats_;
};

/**
 * The decode-stats document, one shape for `pibe measure
 * --decode-stats-json` and `microbench_interpreter --interpreter-json`:
 *
 *   decoded_insts, decoded_bytes   size of the decoded stream
 *   opcodes            {"<op>": static count}, nonzero opcodes only
 *   digrams            {"<a>+<b>": static count}, nonzero pairs only
 *   fused_families     [{"family", "static_sites", "dynamic_execs"}]
 *   fused_static_pairs total rewritten pairs
 *
 * `dynamic_execs` holds the caller's per-family execution counts
 * (RunStats::fused summed over the runs it measured).
 */
Json decodeStatsJson(
    const DecodedModule& decoded,
    const std::array<uint64_t, kNumFusedFamilies>& dynamic_execs);

} // namespace pibe::uarch

#endif // PIBE_UARCH_DECODED_MODULE_H_
