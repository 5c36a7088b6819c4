//===- core/IndexMap.cpp - Composable index mappings ---------------------------===//

#include "core/IndexMap.h"

#include "ops/IndexUtils.h"
#include "support/Error.h"
#include "support/StringUtils.h"

using namespace dnnfusion;

IndexMap IndexMap::identity() { return IndexMap(); }

IndexMap IndexMap::affine(Shape Domain, int64_t Base,
                          std::vector<int64_t> Strides) {
  DNNF_CHECK(static_cast<int>(Strides.size()) == Domain.rank(),
             "affine map stride rank mismatch");
  IndexMap M;
  // An affine map that equals the row-major decode of its own domain is a
  // flat pass-through.
  if (Base == 0 && Strides == Domain.rowMajorStrides())
    return M;
  M.K = Kind::Affine;
  M.Domain = std::move(Domain);
  M.Base = Base;
  M.Strides = std::move(Strides);
  return M;
}

IndexMap IndexMap::generic(Shape Domain, CoordFn Fn) {
  IndexMap M;
  M.K = Kind::Generic;
  M.Domain = std::move(Domain);
  M.Fn = std::move(Fn);
  return M;
}

int64_t IndexMap::map(int64_t Flat) const {
  switch (K) {
  case Kind::Identity:
    return Flat;
  case Kind::Affine: {
    int64_t Out = Base;
    for (int D = Domain.rank() - 1; D >= 0; --D) {
      int64_t Extent = Domain.dim(D);
      Out += (Flat % Extent) * Strides[static_cast<size_t>(D)];
      Flat /= Extent;
    }
    return Out;
  }
  case Kind::Generic: {
    int64_t Coords[8];
    int Rank = Domain.rank();
    DNNF_CHECK(Rank <= 8, "generic index map limited to rank 8");
    for (int D = Rank - 1; D >= 0; --D) {
      int64_t Extent = Domain.dim(D);
      Coords[D] = Flat % Extent;
      Flat /= Extent;
    }
    return Fn(Coords, Rank);
  }
  }
  return Flat;
}

void IndexMap::mapIndices(const int64_t *In, int64_t *Out,
                          int64_t Count) const {
  if (K == Kind::Identity) {
    if (Out != In)
      for (int64_t I = 0; I < Count; ++I)
        Out[I] = In[I];
    return;
  }
  for (int64_t I = 0; I < Count; ++I)
    Out[I] = map(In[I]);
}

void IndexMap::mapContiguous(int64_t Base, int64_t *Out, int64_t Count) const {
  if (K == Kind::Identity) {
    for (int64_t I = 0; I < Count; ++I)
      Out[I] = Base + I;
    return;
  }
  // Decode the starting coordinates once, then walk row-major: each step
  // increments the innermost coordinate and ripples carries, updating the
  // mapped offset by stride deltas (Affine) or re-invoking the coordinate
  // closure (Generic) without any division.
  int Rank = Domain.rank();
  DNNF_CHECK(Rank <= 8, "index map limited to rank 8");
  int64_t Coords[8];
  int64_t Flat = Base;
  for (int D = Rank - 1; D >= 0; --D) {
    int64_t Extent = Domain.dim(D);
    Coords[D] = Flat % Extent;
    Flat /= Extent;
  }
  if (K == Kind::Affine) {
    int64_t Offset = this->Base;
    for (int D = 0; D < Rank; ++D)
      Offset += Coords[D] * Strides[static_cast<size_t>(D)];
    for (int64_t I = 0; I < Count; ++I) {
      Out[I] = Offset;
      for (int D = Rank - 1; D >= 0; --D) {
        ++Coords[D];
        Offset += Strides[static_cast<size_t>(D)];
        if (Coords[D] < Domain.dim(D))
          break;
        Offset -= Strides[static_cast<size_t>(D)] * Domain.dim(D);
        Coords[D] = 0;
      }
    }
    return;
  }
  for (int64_t I = 0; I < Count; ++I) {
    Out[I] = Fn(Coords, Rank);
    for (int D = Rank - 1; D >= 0; --D) {
      ++Coords[D];
      if (Coords[D] < Domain.dim(D))
        break;
      Coords[D] = 0;
    }
  }
}

std::optional<int64_t> IndexMap::constantIndex() const {
  if (K != Kind::Affine)
    return std::nullopt;
  for (int64_t S : Strides)
    if (S != 0)
      return std::nullopt;
  return Base;
}

std::optional<std::pair<int64_t, int64_t>> IndexMap::periodicRow() const {
  if (K != Kind::Affine || Domain.rank() < 1)
    return std::nullopt;
  int Rank = Domain.rank();
  for (int D = 0; D < Rank - 1; ++D)
    if (Strides[static_cast<size_t>(D)] != 0)
      return std::nullopt;
  if (Strides[static_cast<size_t>(Rank - 1)] != 1)
    return std::nullopt;
  return std::make_pair(Base, Domain.dim(Rank - 1));
}

std::string IndexMap::describe() const {
  switch (K) {
  case Kind::Identity:
    return "id";
  case Kind::Affine:
    return formatString("affine(%s, base=%lld, strides=%s)",
                        Domain.toString().c_str(),
                        static_cast<long long>(Base),
                        intsToString(Strides).c_str());
  case Kind::Generic:
    return formatString("generic(%s)", Domain.toString().c_str());
  }
  return "?";
}

bool dnnfusion::chainIsIdentity(const IndexChain &Chain) {
  for (const IndexMap &M : Chain)
    if (!M.isIdentity())
      return false;
  return true;
}

std::optional<int64_t> dnnfusion::chainConstantIndex(const IndexChain &Chain) {
  // The first constant map (in application order) pins the index; maps
  // before it are irrelevant, maps after it fold by single-index
  // evaluation.
  for (size_t I = 0; I < Chain.size(); ++I)
    if (std::optional<int64_t> C = Chain[I].constantIndex()) {
      int64_t V = *C;
      for (size_t M = I + 1; M < Chain.size(); ++M)
        V = Chain[M].map(V);
      return V;
    }
  return std::nullopt;
}

std::optional<std::pair<int64_t, int64_t>>
dnnfusion::chainPeriodicRow(const IndexChain &Chain) {
  std::optional<std::pair<int64_t, int64_t>> Found;
  for (const IndexMap &M : Chain) {
    if (M.isIdentity())
      continue;
    if (Found)
      return std::nullopt; // Two real maps: composition is not tracked.
    Found = M.periodicRow();
    if (!Found)
      return std::nullopt;
  }
  return Found;
}

bool dnnfusion::isFoldableMovementOp(OpKind Kind) {
  switch (Kind) {
  case OpKind::Reshape:
  case OpKind::Flatten:
  case OpKind::Squeeze:
  case OpKind::Unsqueeze:
  case OpKind::Identity:
  case OpKind::Transpose:
  case OpKind::Slice:
  case OpKind::Expand:
  case OpKind::Gather:
  case OpKind::Resize:
  case OpKind::Upsample:
  case OpKind::DepthToSpace:
  case OpKind::SpaceToDepth:
    return true;
  default:
    return false;
  }
}

IndexMap dnnfusion::movementOpMap(const Graph &G, const Node &N) {
  const Shape &Out = N.OutShape;
  const Shape &In = G.node(N.Inputs[0]).OutShape;
  switch (N.Kind) {
  case OpKind::Reshape:
  case OpKind::Flatten:
  case OpKind::Squeeze:
  case OpKind::Unsqueeze:
  case OpKind::Identity:
    return IndexMap::identity();

  case OpKind::Transpose: {
    const std::vector<int64_t> &Perm = N.Attrs.requireInts("perm");
    std::vector<int64_t> InStrides = In.rowMajorStrides();
    std::vector<int64_t> Strides(Perm.size());
    for (size_t I = 0; I < Perm.size(); ++I)
      Strides[I] = InStrides[static_cast<size_t>(Perm[I])];
    return IndexMap::affine(Out, 0, std::move(Strides));
  }

  case OpKind::Slice: {
    const std::vector<int64_t> &StartsAttr = N.Attrs.requireInts("starts");
    const std::vector<int64_t> &AxesAttr = N.Attrs.requireInts("axes");
    int Rank = In.rank();
    std::vector<int64_t> Start(static_cast<size_t>(Rank), 0);
    for (size_t I = 0; I < AxesAttr.size(); ++I) {
      int64_t Axis = AxesAttr[I] < 0 ? AxesAttr[I] + Rank : AxesAttr[I];
      int64_t S = StartsAttr[I] < 0
                      ? StartsAttr[I] + In.dim(static_cast<int>(Axis))
                      : StartsAttr[I];
      Start[static_cast<size_t>(Axis)] =
          std::min(std::max<int64_t>(S, 0), In.dim(static_cast<int>(Axis)));
    }
    std::vector<int64_t> InStrides = In.rowMajorStrides();
    int64_t Base = 0;
    for (int D = 0; D < Rank; ++D)
      Base += Start[static_cast<size_t>(D)] * InStrides[static_cast<size_t>(D)];
    return IndexMap::affine(Out, Base, std::move(InStrides));
  }

  case OpKind::Expand:
    return IndexMap::affine(Out, 0, broadcastStrides(In, Out));

  case OpKind::Gather: {
    int Rank = In.rank();
    int64_t Axis = N.Attrs.getInt("axis", 0);
    if (Axis < 0)
      Axis += Rank;
    std::vector<int64_t> Indices = N.Attrs.requireInts("indices");
    std::vector<int64_t> InStrides = In.rowMajorStrides();
    int64_t AxisV = Axis;
    return IndexMap::generic(
        Out, [Indices, InStrides, AxisV](const int64_t *Coords, int Rank2) {
          int64_t Flat = 0;
          for (int D = 0; D < Rank2; ++D) {
            int64_t C = D == AxisV ? Indices[static_cast<size_t>(Coords[D])]
                                   : Coords[D];
            Flat += C * InStrides[static_cast<size_t>(D)];
          }
          return Flat;
        });
  }

  case OpKind::Resize:
  case OpKind::Upsample: {
    std::vector<int64_t> Scales = N.Attrs.requireInts("scales");
    std::vector<int64_t> InStrides = In.rowMajorStrides();
    return IndexMap::generic(
        Out, [Scales, InStrides](const int64_t *Coords, int Rank) {
          int64_t Flat = 0;
          for (int D = 0; D < Rank; ++D)
            Flat += (Coords[D] / Scales[static_cast<size_t>(D)]) *
                    InStrides[static_cast<size_t>(D)];
          return Flat;
        });
  }

  case OpKind::DepthToSpace: {
    int64_t B = N.Attrs.requireInt("blocksize");
    int64_t C = Out.dim(1), InC = In.dim(1);
    int64_t IH = In.dim(2), IW = In.dim(3);
    return IndexMap::generic(Out, [B, C, InC, IH, IW](const int64_t *Coords,
                                                      int) {
      int64_t Bh = Coords[2] % B, Bw = Coords[3] % B;
      int64_t Cin = (Bh * B + Bw) * C + Coords[1];
      return ((Coords[0] * InC + Cin) * IH + Coords[2] / B) * IW + Coords[3] / B;
    });
  }

  case OpKind::SpaceToDepth: {
    int64_t B = N.Attrs.requireInt("blocksize");
    int64_t InC = In.dim(1), IH = In.dim(2), IW = In.dim(3);
    return IndexMap::generic(
        Out, [B, InC, IH, IW](const int64_t *Coords, int) {
          int64_t Block = Coords[1] / InC;
          int64_t Cin = Coords[1] % InC;
          int64_t Bh = Block / B, Bw = Block % B;
          return ((Coords[0] * InC + Cin) * IH + Coords[2] * B + Bh) * IW +
                 Coords[3] * B + Bw;
        });
  }

  default:
    reportFatalErrorf("movementOpMap: %s is not a foldable movement op",
                      opKindName(N.Kind));
  }
}

IndexMap dnnfusion::operandBroadcastMap(const Shape &InShape,
                                        const Shape &OutShape,
                                        bool ChannelParam) {
  if (InShape == OutShape)
    return IndexMap::identity();
  Shape View = InShape;
  if (ChannelParam && InShape.rank() == 1 && OutShape.rank() >= 2 &&
      OutShape.dim(1) == InShape.dim(0)) {
    std::vector<int64_t> Dims(static_cast<size_t>(OutShape.rank()), 1);
    Dims[1] = InShape.dim(0);
    View = Shape(std::move(Dims));
  }
  return IndexMap::affine(OutShape, 0, broadcastStrides(View, OutShape));
}
