#include "frontend/typegen.h"

#include <array>
#include <cassert>

namespace snowwhite {
namespace frontend {

namespace {

/// Builds a small aggregate with plausible field types.
SrcTypeRef buildAggregate(Rng &R, SrcTypeKind Kind, const std::string &Name,
                          bool WithMethods) {
  auto Aggregate = makeAggregate(Kind, Name);
  Aggregate->HasMethods = WithMethods;
  static const SrcPrimKind FieldPrims[] = {
      SrcPrimKind::SP_I32, SrcPrimKind::SP_U32, SrcPrimKind::SP_I32,
      SrcPrimKind::SP_F64, SrcPrimKind::SP_F32, SrcPrimKind::SP_I64,
      SrcPrimKind::SP_U8,  SrcPrimKind::SP_I16, SrcPrimKind::SP_Char,
      SrcPrimKind::SP_U16, SrcPrimKind::SP_Bool};
  unsigned NumFields = 2 + static_cast<unsigned>(R.nextBelow(5));
  for (unsigned I = 0; I < NumFields; ++I) {
    SrcTypeRef FieldType;
    uint64_t Roll = R.nextBelow(10);
    if (Roll < 7) {
      FieldType = makePrim(FieldPrims[R.nextBelow(std::size(FieldPrims))]);
    } else if (Roll < 9) {
      // Pointer field; self-reference with some probability produces the
      // cyclic DWARF graphs (linked lists) the converter must break. The
      // back edge does not own the aggregate (an aliasing pointer with an
      // empty owner): the field lives inside the aggregate, so it cannot
      // outlive it, and an owning edge would leak the cycle.
      if (R.nextBool(0.4))
        FieldType = makePointer(SrcTypeRef(SrcTypeRef(), Aggregate.get()));
      else
        FieldType = makePointer(makePrim(SrcPrimKind::SP_Char));
    } else {
      FieldType = makeArray(makePrim(SrcPrimKind::SP_U8),
                            4 + static_cast<uint32_t>(R.nextBelow(28)));
    }
    addField(Aggregate, "f" + std::to_string(I), std::move(FieldType));
  }
  return Aggregate;
}

std::string capitalize(std::string Text) {
  if (!Text.empty() && Text[0] >= 'a' && Text[0] <= 'z')
    Text[0] = static_cast<char>(Text[0] - 'a' + 'A');
  return Text;
}

const char *const NounPool[] = {
    "node",   "buffer", "ctx",    "layer",  "stream", "record", "table",
    "widget", "handle", "cursor", "packet", "banner", "driver", "parser",
    "filter", "matrix", "option", "symbol", "window", "worker", "cache",
    "field",  "image",  "index",  "route",  "state",  "token",  "value",
};

} // namespace

std::vector<WellKnownType> makeWellKnownPool() {
  using IK = WellKnownType::IdiomKind;
  std::vector<WellKnownType> Pool;

  // size_t: typedef of a 32-bit unsigned integer (wasm32 data model).
  Pool.push_back({makeTypedef("size_t", makePrim(SrcPrimKind::SP_U32)), 0.64,
                  false, IK::IK_SizeT});

  // FILE: an opaque-ish struct, used behind pointers.
  {
    auto File = makeAggregate(SrcTypeKind::ST_Struct, "FILE");
    addField(File, "flags", makePrim(SrcPrimKind::SP_U32));
    addField(File, "fd", makePrim(SrcPrimKind::SP_I32));
    addField(File, "pos", makePrim(SrcPrimKind::SP_I64));
    addField(File, "buf", makePointer(makePrim(SrcPrimKind::SP_U8)));
    Pool.push_back({File, 0.45, false, IK::IK_File});
  }

  // C++ standard library types (Table 3 ranks 3-6).
  {
    auto BasicString =
        makeAggregate(SrcTypeKind::ST_Class, "basic_string<char, ...>");
    BasicString->HasMethods = true;
    addField(BasicString, "data", makePointer(makePrim(SrcPrimKind::SP_Char)));
    addField(BasicString, "size", makePrim(SrcPrimKind::SP_U32));
    addField(BasicString, "cap", makePrim(SrcPrimKind::SP_U32));
    Pool.push_back({BasicString, 0.17, true, IK::IK_String});
    // std::string is a typedef for the basic_string instantiation.
    Pool.push_back({makeTypedef("string", BasicString), 0.155, true,
                    IK::IK_String});
  }
  {
    auto Ostream =
        makeAggregate(SrcTypeKind::ST_Class, "basic_ostream<char, ...>");
    Ostream->HasMethods = true;
    addField(Ostream, "rdbuf", makePointer(makePrim(SrcPrimKind::SP_U8)));
    addField(Ostream, "state", makePrim(SrcPrimKind::SP_U32));
    Pool.push_back({Ostream, 0.163, true, IK::IK_Generic});
  }
  {
    auto IosBase = makeAggregate(SrcTypeKind::ST_Class, "ios_base");
    IosBase->HasMethods = true;
    addField(IosBase, "flags", makePrim(SrcPrimKind::SP_U32));
    addField(IosBase, "prec", makePrim(SrcPrimKind::SP_I32));
    Pool.push_back({IosBase, 0.161, true, IK::IK_Generic});
  }
  {
    auto Iterator = makeAggregate(SrcTypeKind::ST_Class,
                                  "ostreambuf_iterator<char, ...>");
    addField(Iterator, "sbuf", makePointer(makePrim(SrcPrimKind::SP_U8)));
    addField(Iterator, "failed", makePrim(SrcPrimKind::SP_Bool));
    Pool.push_back({Iterator, 0.158, true, IK::IK_Generic});
  }

  // va_list: typedef of a pointer to an internal tag struct.
  {
    auto Tag = makeAggregate(SrcTypeKind::ST_Struct, "__va_list_tag");
    addField(Tag, "ptr", makePointer(makePrim(SrcPrimKind::SP_U8)));
    Pool.push_back({makeTypedef("va_list", makePointer(Tag)), 0.158, false,
                    IK::IK_VaList});
  }

  // POSIX-ish scalar typedefs.
  Pool.push_back({makeTypedef("time_t", makePrim(SrcPrimKind::SP_I64)), 0.12,
                  false, IK::IK_TimeT});
  Pool.push_back({makeTypedef("off_t", makePrim(SrcPrimKind::SP_I64)), 0.08,
                  false, IK::IK_Generic});
  Pool.push_back({makeTypedef("ssize_t", makePrim(SrcPrimKind::SP_I32)), 0.09,
                  false, IK::IK_SizeT});
  Pool.push_back({makeTypedef("pid_t", makePrim(SrcPrimKind::SP_I32)), 0.05,
                  false, IK::IK_Generic});
  Pool.push_back({makeTypedef("uid_t", makePrim(SrcPrimKind::SP_U32)), 0.04,
                  false, IK::IK_Generic});
  Pool.push_back({makeTypedef("mode_t", makePrim(SrcPrimKind::SP_U32)), 0.04,
                  false, IK::IK_Generic});
  Pool.push_back({makeTypedef("ptrdiff_t", makePrim(SrcPrimKind::SP_I32)),
                  0.06, false, IK::IK_Generic});
  Pool.push_back({makeTypedef("intptr_t", makePrim(SrcPrimKind::SP_I32)), 0.03,
                  false, IK::IK_Generic});
  Pool.push_back({makeTypedef("clock_t", makePrim(SrcPrimKind::SP_I64)), 0.03,
                  false, IK::IK_TimeT});
  Pool.push_back({makeTypedef("socklen_t", makePrim(SrcPrimKind::SP_U32)),
                  0.025, false, IK::IK_Generic});

  // Other common opaque library structs.
  {
    auto Dir = makeAggregate(SrcTypeKind::ST_Struct, "DIR");
    addField(Dir, "fd", makePrim(SrcPrimKind::SP_I32));
    addField(Dir, "buf", makePointer(makePrim(SrcPrimKind::SP_U8)));
    Pool.push_back({Dir, 0.03, false, IK::IK_Generic});
  }
  {
    auto Regex = makeAggregate(SrcTypeKind::ST_Struct, "regex_t");
    addField(Regex, "buffer", makePointer(makePrim(SrcPrimKind::SP_U8)));
    addField(Regex, "used", makePrim(SrcPrimKind::SP_U32));
    Pool.push_back({Regex, 0.025, false, IK::IK_Generic});
  }
  {
    auto Mutex = makeAggregate(SrcTypeKind::ST_Struct, "pthread_mutex_t");
    addField(Mutex, "lock", makePrim(SrcPrimKind::SP_I32));
    addField(Mutex, "owner", makePrim(SrcPrimKind::SP_I32));
    Pool.push_back({Mutex, 0.04, false, IK::IK_Generic});
  }
  Pool.push_back({makeTypedef("pthread_t", makePrim(SrcPrimKind::SP_U32)),
                  0.045, false, IK::IK_Generic});

  return Pool;
}

TypeEnvironment::TypeEnvironment(Rng &R, bool IsCxxIn,
                                 const std::string &PackagePrefix,
                                 const std::vector<WellKnownType> &Pool)
    : IsCxx(IsCxxIn) {
  // Roll per-package inclusion of each well-known type.
  for (const WellKnownType &Known : Pool) {
    if (Known.CxxOnly && !IsCxx)
      continue;
    if (R.nextBool(Known.InclusionProbability))
      UsedWellKnown.push_back(Known);
  }

  // Project-specific aggregates. C++ packages favor classes.
  unsigned NumAggregates = 2 + static_cast<unsigned>(R.nextBelow(5));
  for (unsigned I = 0; I < NumAggregates; ++I) {
    std::string Noun = NounPool[R.nextBelow(std::size(NounPool))];
    bool AsClass = IsCxx && R.nextBool(0.72);
    if (AsClass) {
      std::string Name = capitalize(PackagePrefix) + capitalize(Noun);
      Classes.push_back(buildAggregate(R, SrcTypeKind::ST_Class, Name, true));
    } else {
      std::string Name = PackagePrefix + "_" + Noun;
      Structs.push_back(
          buildAggregate(R, SrcTypeKind::ST_Struct, Name, false));
    }
  }
  if (Structs.empty())
    Structs.push_back(buildAggregate(R, SrcTypeKind::ST_Struct,
                                     PackagePrefix + "_impl", false));
  // Unions are rarer but do appear (variant payloads, tagged values).
  if (R.nextBool(0.4))
    Unions.push_back(buildAggregate(R, SrcTypeKind::ST_Union,
                                    PackagePrefix + "_u", false));

  // Enums, typedefs, forward declarations.
  unsigned NumEnums = 1 + static_cast<unsigned>(R.nextBelow(2));
  for (unsigned I = 0; I < NumEnums; ++I)
    Enums.push_back(makeEnum(PackagePrefix + "_" +
                             NounPool[R.nextBelow(std::size(NounPool))] +
                             "_kind"));
  unsigned NumTypedefs = 1 + static_cast<unsigned>(R.nextBelow(2));
  static const SrcPrimKind TypedefPrims[] = {
      SrcPrimKind::SP_U32, SrcPrimKind::SP_I32, SrcPrimKind::SP_U64,
      SrcPrimKind::SP_U16};
  for (unsigned I = 0; I < NumTypedefs; ++I)
    Typedefs.push_back(
        makeTypedef(PackagePrefix + "_" +
                        NounPool[R.nextBelow(std::size(NounPool))] + "_t",
                    makePrim(TypedefPrims[R.nextBelow(4)])));
  Forwards.push_back(makeForward(
      PackagePrefix + "_" + NounPool[R.nextBelow(std::size(NounPool))] +
          "_priv",
      /*IsClass=*/false));
}

SrcTypeRef TypeEnvironment::sampleLocalAggregate(Rng &R) const {
  if (!Unions.empty() && R.nextBool(0.05))
    return R.pick(Unions);
  // C++ packages are class-heavy.
  if (!Classes.empty() && R.nextBool(0.72))
    return R.pick(Classes);
  return R.pick(Structs);
}

SrcTypeRef TypeEnvironment::sampleAggregatePointer(Rng &R,
                                                   bool AllowConst) const {
  SrcTypeRef Pointee = sampleLocalAggregate(R);
  if (AllowConst && R.nextBool(0.27))
    Pointee = makeConst(Pointee);
  if (IsCxx && R.nextBool(0.18))
    return makeReference(Pointee);
  return makePointer(Pointee);
}

SrcTypeRef TypeEnvironment::samplePrimitive(Rng &R) const {
  // Weighted toward i32 (Table 2 rank 3).
  static const std::pair<SrcPrimKind, double> Prims[] = {
      {SrcPrimKind::SP_I32, 0.40},  {SrcPrimKind::SP_U32, 0.13},
      {SrcPrimKind::SP_F64, 0.10},  {SrcPrimKind::SP_Bool, 0.07},
      {SrcPrimKind::SP_I64, 0.06},  {SrcPrimKind::SP_U64, 0.04},
      {SrcPrimKind::SP_F32, 0.06},  {SrcPrimKind::SP_Char, 0.04},
      {SrcPrimKind::SP_I16, 0.025}, {SrcPrimKind::SP_U16, 0.025},
      {SrcPrimKind::SP_I8, 0.02},   {SrcPrimKind::SP_U8, 0.03},
      {SrcPrimKind::SP_F128, 0.005},{SrcPrimKind::SP_Complex, 0.005},
      {SrcPrimKind::SP_WChar32, 0.01},
  };
  std::vector<double> Weights;
  for (const auto &[Kind, Weight] : Prims)
    Weights.push_back(Weight);
  return makePrim(Prims[R.nextWeighted(Weights)].first);
}

SrcTypeRef TypeEnvironment::sampleParamType(Rng &R) const {
  // Category weights shaped after Table 2 of the paper.
  enum Category {
    CatAggregatePtr,
    CatPrim,
    CatCharPtr,
    CatWellKnown,
    CatVoidOrFwdPtr,
    CatPrimPtr,
    CatLocalTypedef,
    CatEnum,
    CatPtrPtr,
    CatArray,
    CatFuncPtr,
    CatWCharPtr,
    CatAggregateByValue,
  };
  static const double Weights[] = {
      /*CatAggregatePtr=*/0.40, /*CatPrim=*/0.24,
      /*CatCharPtr=*/0.055,     /*CatWellKnown=*/0.08,
      /*CatVoidOrFwdPtr=*/0.035,/*CatPrimPtr=*/0.07,
      /*CatLocalTypedef=*/0.025,/*CatEnum=*/0.025,
      /*CatPtrPtr=*/0.02,       /*CatArray=*/0.015,
      /*CatFuncPtr=*/0.01,      /*CatWCharPtr=*/0.005,
      /*CatAggregateByValue=*/0.02,
  };
  std::vector<double> WeightVector(std::begin(Weights), std::end(Weights));

  switch (static_cast<Category>(R.nextWeighted(WeightVector))) {
  case CatAggregatePtr:
    return sampleAggregatePointer(R, /*AllowConst=*/true);
  case CatPrim:
    return samplePrimitive(R);
  case CatCharPtr: {
    SrcTypeRef Char = makePrim(SrcPrimKind::SP_Char);
    if (R.nextBool(0.55))
      Char = makeConst(Char);
    return makePointer(Char);
  }
  case CatWellKnown: {
    if (UsedWellKnown.empty())
      return samplePrimitive(R);
    const WellKnownType &Known = R.pick(UsedWellKnown);
    const SrcType &Layout = Known.Type->strippedForLayout();
    // Aggregate-valued well-known types are used behind pointers.
    if (Layout.Kind == SrcTypeKind::ST_Struct ||
        Layout.Kind == SrcTypeKind::ST_Class) {
      SrcTypeRef Pointee = Known.Type;
      if (R.nextBool(0.2))
        Pointee = makeConst(Pointee);
      if (IsCxx && R.nextBool(0.25))
        return makeReference(Pointee);
      return makePointer(Pointee);
    }
    return Known.Type;
  }
  case CatVoidOrFwdPtr:
    if (R.nextBool(0.5))
      return makePointer(makeVoid());
    return makePointer(R.pick(Forwards));
  case CatPrimPtr: {
    SrcTypeRef Pointee = samplePrimitive(R);
    if (R.nextBool(0.2))
      Pointee = makeConst(Pointee);
    return makePointer(Pointee);
  }
  case CatLocalTypedef:
    return R.pick(Typedefs);
  case CatEnum:
    return R.pick(Enums);
  case CatPtrPtr: {
    SrcTypeRef Inner = R.nextBool(0.5)
                           ? makePointer(sampleLocalAggregate(R))
                           : makePointer(makePrim(SrcPrimKind::SP_Char));
    return makePointer(Inner);
  }
  case CatArray: {
    SrcTypeRef Element =
        R.nextBool(0.5) ? makePrim(SrcPrimKind::SP_F64) : samplePrimitive(R);
    SrcTypeRef Array =
        makeArray(Element, 4 + static_cast<uint32_t>(R.nextBelow(60)));
    // Plain array parameters decay to pointers in DWARF; an explicit
    // pointer-to-array (e.g. `double (*)[16]`) keeps the 'array'
    // constructor visible in the type language.
    if (R.nextBool(0.35))
      return makePointer(Array);
    return Array;
  }
  case CatFuncPtr: {
    std::vector<SrcTypeRef> ProtoParams = {makePrim(SrcPrimKind::SP_I32)};
    if (R.nextBool(0.5))
      ProtoParams.push_back(makePointer(makeVoid()));
    return makePointer(
        makeFuncProto(std::move(ProtoParams), makePrim(SrcPrimKind::SP_I32)));
  }
  case CatWCharPtr:
    return makePointer(makePrim(SrcPrimKind::SP_WChar32));
  case CatAggregateByValue:
    // Small structs/unions passed by value: the source (and DWARF) type is
    // the aggregate itself, while the wasm ABI passes a pointer (byval).
    return sampleLocalAggregate(R);
  }
  return samplePrimitive(R);
}

SrcTypeRef TypeEnvironment::sampleReturnType(Rng &R) const {
  if (R.nextBool(0.48))
    return makeVoid();
  enum Category {
    CatPrim,
    CatAggregatePtr,
    CatCharPtr,
    CatVoidPtr,
    CatWellKnown,
    CatEnum,
    CatBool,
  };
  static const double Weights[] = {
      /*CatPrim=*/0.46,   /*CatAggregatePtr=*/0.17, /*CatCharPtr=*/0.06,
      /*CatVoidPtr=*/0.05,/*CatWellKnown=*/0.12,    /*CatEnum=*/0.05,
      /*CatBool=*/0.09,
  };
  std::vector<double> WeightVector(std::begin(Weights), std::end(Weights));
  switch (static_cast<Category>(R.nextWeighted(WeightVector))) {
  case CatPrim:
    return samplePrimitive(R);
  case CatAggregatePtr:
    return sampleAggregatePointer(R, /*AllowConst=*/false);
  case CatCharPtr: {
    SrcTypeRef Char = makePrim(SrcPrimKind::SP_Char);
    if (R.nextBool(0.4))
      Char = makeConst(Char);
    return makePointer(Char);
  }
  case CatVoidPtr:
    return makePointer(makeVoid());
  case CatWellKnown: {
    if (UsedWellKnown.empty())
      return samplePrimitive(R);
    const WellKnownType &Known = R.pick(UsedWellKnown);
    const SrcType &Layout = Known.Type->strippedForLayout();
    if (Layout.Kind == SrcTypeKind::ST_Struct ||
        Layout.Kind == SrcTypeKind::ST_Class)
      return makePointer(Known.Type);
    return Known.Type;
  }
  case CatEnum:
    return R.pick(Enums);
  case CatBool:
    return makePrim(SrcPrimKind::SP_Bool);
  }
  return samplePrimitive(R);
}

SrcFunction generateSignature(Rng &R, const TypeEnvironment &Env,
                              const std::string &PackagePrefix,
                              uint32_t FunctionIndex) {
  SrcFunction Func;
  Func.IsExternCpp = Env.isCxx();
  static const char *const Verbs[] = {
      "init", "get",   "set",    "update", "parse",  "read",  "write",
      "free", "alloc", "handle", "apply",  "compute", "reset", "find",
  };
  std::string Verb = Verbs[R.nextBelow(std::size(Verbs))];
  std::string Noun = NounPool[R.nextBelow(std::size(NounPool))];
  Func.Name = PackagePrefix + "_" + Verb + "_" + Noun + "_" +
              std::to_string(FunctionIndex);
  unsigned NumParams = static_cast<unsigned>(R.nextWeighted(
      {0.08, 0.27, 0.28, 0.20, 0.10, 0.05, 0.02})); // 0..6 params.
  for (unsigned I = 0; I < NumParams; ++I)
    Func.Params.emplace_back("a" + std::to_string(I), Env.sampleParamType(R));
  Func.ReturnType = Env.sampleReturnType(R);
  return Func;
}

} // namespace frontend
} // namespace snowwhite
