//===- core/DftProgram.h - Compiled DFT instruction tape ----------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled form of a DftTree and the one execution path of every
/// expression step: a flat, topologically ordered instruction tape with
/// pre-assigned chunk registers and compile-time-resolved instruction
/// variants. Instead of re-walking the tree for every 256-element chunk —
/// recursing, re-checking chainIsIdentity, and re-deriving index sets —
/// the program executes each chunk as one branch-light linear loop over
/// fixed-size buffers:
///
///  - a *value register* is a float[DftMaxChunk] lane holding one tree
///    value for the current chunk; registers are allocated post-order with
///    last-use reuse, so NumValueRegs stays near the tree depth;
///  - an *index set* is an int64[DftMaxChunk] lane holding the producer
///    indices a subtree must be evaluated at. Set 0 is the implicit
///    contiguous chunk [Base, Base+Count); every non-identity edge chain
///    lowers to one MapIndices instruction producing an explicit set.
///
/// Variant resolution happens once at compile time: a contiguous leaf
/// becomes a zero-copy slot argument of its consumer, an Identity node
/// becomes a register alias (no instruction), a mapped leaf becomes a
/// LoadGather, Concat lowers to RouterSplit / RouterMerge around its
/// branch subtrees. Every instruction is per-element within its chunk and
/// the elementwise semantics are evalElementwiseChunk's, so the program's
/// outputs are bit-identical to materializing each operator on its own —
/// asserted against the test suite's op-by-op reference interpreter
/// zoo-wide and across the GraphFuzz matrix.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_CORE_DFTPROGRAM_H
#define DNNFUSION_CORE_DFTPROGRAM_H

#include "core/Dft.h"
#include "ops/KernelRegistry.h"

#include <string>

namespace dnnfusion {

/// Maximum elementwise arity of a tape instruction.
inline constexpr int DftEltwiseMaxArity = 5;

/// One tape instruction. Operand roles depend on K; unused fields keep
/// their defaults.
struct DftInstr {
  enum class Kind : uint8_t {
    /// IdxSet[Dst] = Chains[Chain] applied to IdxSet[Src]. A contiguous
    /// source uses the division-free incremental walk for the first map.
    MapIndices,
    /// Reg[Dst][i] = Slots[Slot][IdxSet[Ctx].Idx[i]] — a gathered leaf.
    LoadGather,
    /// Reg[Dst][i] = Slots[Slot][MapBase] — a leaf whose edge chain maps
    /// every index to one fixed element (broadcast scalar). Replaces a
    /// MapIndices + LoadGather pair with a register fill.
    LoadSplat,
    /// Reg[Dst][i] = Slots[Slot][MapBase + (Base + i) % MapPeriod] — a
    /// leaf whose edge chain is a right-aligned rank-1 broadcast (GEMM
    /// bias, per-channel row parameter). Contiguous chunks only; executes
    /// as period-aligned memcpy runs instead of per-element gathers.
    LoadPeriodic,
    /// Reg[Dst] = EOp(Args...) over IdxSet[Ctx]'s count. Slot arguments
    /// are zero-copy pointers into a buffer (contiguous sets only).
    Eltwise,
    /// Partition IdxSet[Src] by the Concat axis coordinate into the
    /// compacted branch sets BranchSets[b] (local indices + positions).
    RouterSplit,
    /// Reg[Dst][IdxSet[BranchSets[b]].Pos[i]] = Reg[BranchRegs[b]][i] for
    /// every branch — scatters branch values back into chunk order.
    RouterMerge,
  };

  /// One value argument of an Eltwise instruction.
  struct Arg {
    bool IsSlot = false; ///< True: zero-copy contiguous buffer slot.
    int Index = -1;      ///< Register id, or buffer slot id.
  };

  Kind K = Kind::Eltwise;
  /// Graph node this instruction computes (diagnostics / emitter).
  NodeId Origin = InvalidNodeId;

  /// Destination value register (DftProgram::OutputReg = the chunk output
  /// pointer), or destination index set for MapIndices.
  int Dst = -1;
  /// Index set giving this instruction its iteration count (Eltwise,
  /// LoadGather, RouterMerge).
  int Ctx = 0;
  /// True when Ctx/Src is the implicit contiguous set 0.
  bool CtxContig = true;

  int Slot = -1;  ///< Buffer slot (LoadGather, LoadSplat, LoadPeriodic).
  int Src = 0;    ///< Source index set (MapIndices, RouterSplit).
  int Chain = -1; ///< Index of the chain in DftProgram::Chains.
  /// Fixed element index (LoadSplat) or period base offset (LoadPeriodic).
  int64_t MapBase = 0;
  /// Broadcast period in elements (LoadPeriodic).
  int64_t MapPeriod = 0;

  // Eltwise.
  OpKind EOp = OpKind::Identity;
  ScalarParams Params;
  int NumArgs = 0;
  Arg Args[DftEltwiseMaxArity];

  // Router.
  Shape Domain;
  int RouterAxis = -1;
  std::vector<int64_t> BranchStarts;
  std::vector<int> BranchSets; ///< Split destinations / merge positions.
  std::vector<int> BranchRegs; ///< Merge value sources.
};

/// A compiled, executable instruction tape for one DftTree.
class DftProgram {
public:
  /// Dst value meaning "write the chunk output span directly".
  static constexpr int OutputReg = -1;

  std::vector<DftInstr> Instrs;
  /// Edge index chains referenced by MapIndices instructions.
  std::vector<IndexChain> Chains;
  /// High-water register / index-set counts (register file sizing).
  int NumValueRegs = 0;
  int NumIndexSets = 1; ///< Set 0 is the implicit contiguous chunk.
  int64_t OutElems = 0;

  bool empty() const { return Instrs.empty(); }

  /// Lowers \p T into a tape. Always succeeds (every tree form has a
  /// lowering).
  static DftProgram compile(const DftTree &T);

  /// Evaluates the program over output flat indices [0, OutElems) into
  /// \p Out, ChunkSize elements at a time, parallelized over chunks with
  /// deterministic slicing.
  ///
  /// \p Level picks the kernel-registry tier for the Eltwise instructions
  /// (resolved once per call, not per chunk). The SIMD tier covers a
  /// subset of ops and is bit-identical where it applies; uncovered ops
  /// fall through to the scalar evalElementwiseChunk per instruction.
  void execute(const std::vector<const float *> &Slots, float *Out,
               int ChunkSize, KernelLevel Level = KernelLevel::Scalar) const;

  /// One line per instruction (CodeEmitter's tape audit).
  std::string describe() const;
};

} // namespace dnnfusion

#endif // DNNFUSION_CORE_DFTPROGRAM_H
