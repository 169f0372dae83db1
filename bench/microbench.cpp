//===- bench/microbench.cpp - Component micro-benchmarks (§6.1) ------------===//
//
// google-benchmark measurements for the pipeline stages, including the
// paper's §6.1 claim that prediction takes 3–40 ms per input sample
// (including beam search) — near-instantaneous compared with constraint
// solving.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"
#include "dataset/bpe.h"
#include "dataset/extract.h"
#include "frontend/typegen.h"
#include "dwarf/io.h"
#include "nn/graph.h"
#include "nn/kernels.h"
#include "model/serve_daemon.h"
#include "model/serving.h"
#include "support/hash.h"
#include "support/io.h"
#include "support/telemetry.h"
#include "support/thread_pool.h"
#include "typelang/from_dwarf.h"
#include "wasm/reader.h"
#include "wasm/validate.h"
#include "wasm/writer.h"

#include <benchmark/benchmark.h>

#include <iterator>
#include <string_view>

#include <sys/resource.h>

using namespace snowwhite;

namespace {

/// One fixed mid-sized compiled object shared by the wasm-level benchmarks.
const frontend::CompiledObject &sampleObject() {
  static frontend::CompiledObject Object = [] {
    Rng R(99);
    std::vector<frontend::WellKnownType> Pool = frontend::makeWellKnownPool();
    frontend::TypeEnvironment Env(R, true, "bench", Pool);
    std::vector<frontend::SrcFunction> Functions;
    for (int I = 0; I < 16; ++I)
      Functions.push_back(frontend::generateSignature(R, Env, "bench", I));
    return frontend::compileObject(Functions, "bench.o", R, {});
  }();
  return Object;
}

/// This process's minor page faults so far.
long minorFaults() {
  rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return Usage.ru_minflt;
}

struct TrainedSetup {
  dataset::Dataset Data;
  std::unique_ptr<model::Task> TaskPtr;
  std::unique_ptr<nn::Seq2SeqModel> Model;
};

/// A small trained model for the prediction-latency benchmarks.
TrainedSetup &trainedSetup() {
  static TrainedSetup Setup = [] {
    TrainedSetup Out;
    frontend::CorpusSpec Spec;
    Spec.NumPackages = 30;
    Spec.Seed = 5150;
    frontend::Corpus Corpus = frontend::buildCorpus(Spec);
    Out.Data = dataset::buildDataset(Corpus);
    model::TaskOptions Options;
    Options.MaxTrainSamples = 600;
    Out.TaskPtr = std::make_unique<model::Task>(Out.Data, Options);
    model::TrainOptions Train = bench::benchTrainOptions();
    Train.MaxEpochs = 2;
    model::TrainResult Result = model::trainModel(*Out.TaskPtr, Train);
    Out.Model = std::move(Result.Model);
    return Out;
  }();
  return Setup;
}

void BM_WasmWrite(benchmark::State &State) {
  wasm::Module Mod = sampleObject().Mod;
  size_t Bytes = 0;
  for (auto _ : State) {
    std::vector<uint8_t> Out = wasm::writeModule(Mod);
    Bytes = Out.size();
    benchmark::DoNotOptimize(Out);
  }
  State.SetBytesProcessed(int64_t(State.iterations()) * int64_t(Bytes));
}
BENCHMARK(BM_WasmWrite);

void BM_WasmRead(benchmark::State &State) {
  const std::vector<uint8_t> &Bytes = sampleObject().Bytes;
  for (auto _ : State) {
    Result<wasm::Module> Mod = wasm::readModule(Bytes);
    benchmark::DoNotOptimize(Mod);
  }
  State.SetBytesProcessed(int64_t(State.iterations()) *
                          int64_t(Bytes.size()));
}
BENCHMARK(BM_WasmRead);

void BM_WasmReadStreamed(benchmark::State &State) {
  // Same decode as BM_WasmRead, but through the chunked ByteSource the
  // streaming ingest uses (64 KiB window) — the delta is the streaming
  // abstraction's overhead.
  const std::vector<uint8_t> &Bytes = sampleObject().Bytes;
  for (auto _ : State) {
    io::MemoryByteSource Source(Bytes, 64 * 1024);
    Result<wasm::Module> Mod = wasm::readModuleStreamed(Source);
    benchmark::DoNotOptimize(Mod);
  }
  State.SetBytesProcessed(int64_t(State.iterations()) *
                          int64_t(Bytes.size()));
}
BENCHMARK(BM_WasmReadStreamed);

void BM_WasmValidate(benchmark::State &State) {
  const wasm::Module &Mod = sampleObject().Mod;
  for (auto _ : State) {
    Result<void> Status = wasm::validateModule(Mod);
    benchmark::DoNotOptimize(Status);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(Mod.Functions.size()));
}
BENCHMARK(BM_WasmValidate);

void BM_DwarfExtract(benchmark::State &State) {
  const wasm::Module &Mod = sampleObject().Mod;
  for (auto _ : State) {
    Result<dwarf::DebugInfo> Info = dwarf::extractDebugInfo(Mod);
    benchmark::DoNotOptimize(Info);
  }
}
BENCHMARK(BM_DwarfExtract);

void BM_TypeFromDwarf(benchmark::State &State) {
  const frontend::CompiledObject &Object = sampleObject();
  std::vector<dwarf::DieRef> TypeDies;
  for (dwarf::DieRef Sub : Object.Debug.subprograms())
    for (dwarf::DieRef Param : Object.Debug.formalParameters(Sub))
      TypeDies.push_back(Object.Debug.typeOf(Param));
  for (auto _ : State) {
    for (dwarf::DieRef Die : TypeDies) {
      typelang::Type T = typelang::typeFromDwarf(Object.Debug, Die);
      benchmark::DoNotOptimize(T);
    }
  }
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(TypeDies.size()));
}
BENCHMARK(BM_TypeFromDwarf);

void BM_ExtractParamInput(benchmark::State &State) {
  const wasm::Module &Mod = sampleObject().Mod;
  for (auto _ : State) {
    for (uint32_t Func = 0; Func < Mod.Functions.size(); ++Func) {
      const wasm::FuncType &Type = Mod.functionType(Func);
      for (uint32_t Param = 0; Param < Type.Params.size(); ++Param) {
        std::vector<std::string> Tokens =
            dataset::extractParamInput(Mod, Func, Param);
        benchmark::DoNotOptimize(Tokens);
      }
    }
  }
}
BENCHMARK(BM_ExtractParamInput);

void BM_BpeEncode(benchmark::State &State) {
  TrainedSetup &Setup = trainedSetup();
  const model::Task &Task = *Setup.TaskPtr;
  const dataset::TypeSample &Sample = Setup.Data.Samples.front();
  for (auto _ : State) {
    std::vector<uint32_t> Ids = Task.encodeSource(Sample.Input);
    benchmark::DoNotOptimize(Ids);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(Sample.Input.size()));
}
BENCHMARK(BM_BpeEncode);

void BM_PredictionLatency(benchmark::State &State) {
  TrainedSetup &Setup = trainedSetup();
  unsigned BeamWidth = static_cast<unsigned>(State.range(0));
  const std::vector<model::EncodedSample> &Test = Setup.TaskPtr->test();
  if (Test.empty()) {
    State.SkipWithError("no test samples");
    return;
  }
  size_t Index = 0;
  long FaultsBefore = minorFaults();
  for (auto _ : State) {
    const model::EncodedSample &Sample = Test[Index % Test.size()];
    std::vector<nn::Hypothesis> Top =
        Setup.Model->predictTopK(Sample.Source, BeamWidth);
    benchmark::DoNotOptimize(Top);
    ++Index;
  }
  State.SetItemsProcessed(State.iterations());
  // Page faults the decode takes per request: its graph's blocks are
  // reused from the thread's inference arena, so this stays near 0
  // whether or not the allocator maps large blocks afresh each time.
  State.counters["minor_faults_per_req"] = benchmark::Counter(
      double(minorFaults() - FaultsBefore), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PredictionLatency)->Arg(1)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_TrainBatch(benchmark::State &State) {
  TrainedSetup &Setup = trainedSetup();
  const std::vector<model::EncodedSample> &Train = Setup.TaskPtr->train();
  size_t BatchSize = std::min<size_t>(24, Train.size());
  std::vector<std::vector<uint32_t>> Sources, Targets;
  for (size_t I = 0; I < BatchSize; ++I) {
    Sources.push_back(Train[I].Source);
    Targets.push_back(Train[I].Target);
  }
  nn::AdamOptimizer Optimizer(Setup.Model->parameters());
  for (auto _ : State) {
    float Loss = Setup.Model->trainBatch(Sources, Targets, Optimizer);
    benchmark::DoNotOptimize(Loss);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * int64_t(BatchSize));
}
BENCHMARK(BM_TrainBatch)->Unit(benchmark::kMillisecond);

/// Threads-vs-throughput for the row-blocked GEMM kernel. The Arg is the
/// pool size; results are bit-identical across Args by construction, so this
/// row only measures scaling.
void BM_GemmThreads(benchmark::State &State) {
  ThreadPool::resetGlobal(static_cast<unsigned>(State.range(0)));
  constexpr size_t M = 192, K = 192, N = 192;
  std::vector<float> AData(M * K), BData(K * N);
  Rng R(7);
  for (float &V : AData)
    V = R.nextUniformFloat(1.0f);
  for (float &V : BData)
    V = R.nextUniformFloat(1.0f);
  for (auto _ : State) {
    nn::Graph G(/*Training=*/false);
    nn::Var A = G.input(M, K, AData.data());
    nn::Var B = G.input(K, N, BData.data());
    nn::Var C = G.matmul(A, B);
    benchmark::DoNotOptimize(C.value()[0]);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(2 * M * K * N)); // FLOPs.
  ThreadPool::resetGlobal(0); // Back to the SNOWWHITE_THREADS-sized pool.
}
BENCHMARK(BM_GemmThreads)->Arg(1)->Arg(2)->Arg(4);

/// Single-thread kernel comparison on one square GEMM: the scalar reference
/// table vs the threaded entry point (the table this CPU was dispatched to)
/// vs int8 dequantize-on-accumulate. Pool pinned to one thread so the rows
/// isolate the kernel itself; BM_GemmThreads above measures scaling.
enum class GemmPath { Reference, Tuned, Int8 };

void benchGemmPath(benchmark::State &State, GemmPath Path) {
  namespace kernels = nn::kernels;
  ThreadPool::resetGlobal(1);
  constexpr size_t M = 192, K = 192, N = 192;
  std::vector<float> AData(M * K), BData(K * N), C(M * N);
  Rng R(7);
  for (float &V : AData)
    V = R.nextUniformFloat(1.0f);
  for (float &V : BData)
    V = R.nextUniformFloat(1.0f);
  kernels::QuantizedMatrix Q;
  if (Path == GemmPath::Int8)
    Q = kernels::quantizeRowwise(BData.data(), K, N);
  for (auto _ : State) {
    std::fill(C.begin(), C.end(), 0.0f);
    switch (Path) {
    case GemmPath::Reference:
      kernels::reference().Gemm(M, K, N, AData.data(), BData.data(),
                                C.data());
      break;
    case GemmPath::Tuned:
      kernels::gemm(M, K, N, AData.data(), BData.data(), C.data());
      break;
    case GemmPath::Int8:
      kernels::gemmInt8(M, K, N, AData.data(), Q.Data.data(),
                        Q.RowScale.data(), C.data());
      break;
    }
    benchmark::DoNotOptimize(C[0]);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(2 * M * K * N)); // FLOPs.
  ThreadPool::resetGlobal(0);
}

void BM_GemmReference(benchmark::State &State) {
  benchGemmPath(State, GemmPath::Reference);
}
BENCHMARK(BM_GemmReference);

void BM_GemmTuned(benchmark::State &State) {
  benchGemmPath(State, GemmPath::Tuned);
}
BENCHMARK(BM_GemmTuned);

void BM_GemmInt8(benchmark::State &State) {
  benchGemmPath(State, GemmPath::Int8);
}
BENCHMARK(BM_GemmInt8);

/// Threads-vs-throughput for a full data-parallel optimizer step (forward,
/// backward, ordered gradient reduction, Adam).
void BM_TrainBatchThreads(benchmark::State &State) {
  TrainedSetup &Setup = trainedSetup();
  ThreadPool::resetGlobal(static_cast<unsigned>(State.range(0)));
  const std::vector<model::EncodedSample> &Train = Setup.TaskPtr->train();
  size_t BatchSize = std::min<size_t>(24, Train.size());
  std::vector<std::vector<uint32_t>> Sources, Targets;
  for (size_t I = 0; I < BatchSize; ++I) {
    Sources.push_back(Train[I].Source);
    Targets.push_back(Train[I].Target);
  }
  nn::AdamOptimizer Optimizer(Setup.Model->parameters());
  for (auto _ : State) {
    float Loss = Setup.Model->trainBatch(Sources, Targets, Optimizer);
    benchmark::DoNotOptimize(Loss);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * int64_t(BatchSize));
  ThreadPool::resetGlobal(0);
}
BENCHMARK(BM_TrainBatchThreads)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

// --- Telemetry primitives ------------------------------------------------------
//
// The observability layer's cost model: a counter add and a histogram record
// are one relaxed atomic RMW each (a few ns), a span is two clock reads plus
// one mutex-guarded append. The instrumented hot paths (batch train step,
// serve request) spend milliseconds per event, so per-event telemetry cost
// is bounded well under the 1% budget — BM_TelemetryOverheadOnServe
// measures that end to end.

void BM_TelemetryCounterAdd(benchmark::State &State) {
  telemetry::Counter &C = telemetry::counter("bench.counter");
  for (auto _ : State)
    C.add();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_TelemetryCounterAdd);

void BM_TelemetryHistogramRecord(benchmark::State &State) {
  telemetry::Histogram &H = telemetry::histogram("bench.histogram");
  uint64_t V = 1;
  for (auto _ : State) {
    H.record(V);
    V = (V * 2862933555777941757ull + 3037000493ull) >> 8;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_TelemetryHistogramRecord);

void BM_TelemetrySpan(benchmark::State &State) {
  for (auto _ : State) {
    telemetry::Span S("bench.span");
    benchmark::DoNotOptimize(&S);
  }
  telemetry::Registry::global().reset(); // Drop the flood of bench spans.
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_TelemetrySpan);

void BM_TelemetrySnapshot(benchmark::State &State) {
  // Snapshot cost over a realistically populated registry.
  for (int I = 0; I < 64; ++I) {
    telemetry::counter("bench.snap." + std::to_string(I)).add(uint64_t(I));
    telemetry::histogram("bench.hist." + std::to_string(I % 8))
        .record(uint64_t(I) * 1000);
  }
  for (auto _ : State) {
    std::string Json = telemetry::metricsJson();
    benchmark::DoNotOptimize(Json);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_TelemetrySnapshot);

/// The <1% overhead bound, measured on the serving path: one full
/// degradation-ladder request (the per-event unit the serving layer
/// instruments with one span, one histogram record and a handful of counter
/// adds). Compare against BM_PredictionLatency/5: the delta is the
/// telemetry cost plus ladder bookkeeping, and the telemetry share of it is
/// the primitive costs above — hundreds of ns against milliseconds.
void BM_TelemetryOverheadOnServe(benchmark::State &State) {
  TrainedSetup &Setup = trainedSetup();
  model::ServingOptions Options;
  model::ServingEngine Engine(*Setup.Model, *Setup.TaskPtr, Options);
  const std::vector<model::EncodedSample> &Test = Setup.TaskPtr->test();
  if (Test.empty()) {
    State.SkipWithError("no test samples");
    return;
  }
  const dataset::TypeSample &Sample = Setup.Data.Samples.front();
  uint64_t Id = 0;
  for (auto _ : State) {
    model::ServeRequest Request;
    Request.Id = Id++;
    Request.InputTokens = Sample.Input;
    model::ServeResponse Response = Engine.processOne(Request);
    benchmark::DoNotOptimize(Response);
  }
  telemetry::Registry::global().reset();
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_TelemetryOverheadOnServe)->Unit(benchmark::kMillisecond);

void BM_StatisticalBaseline(benchmark::State &State) {
  TrainedSetup &Setup = trainedSetup();
  model::StatisticalBaseline Baseline(*Setup.TaskPtr);
  for (auto _ : State) {
    std::vector<model::TypePrediction> Top =
        Baseline.predict(wasm::ValType::I32, 5);
    benchmark::DoNotOptimize(Top);
  }
}
BENCHMARK(BM_StatisticalBaseline);

// --- Prediction-cache key (the layers of a serve-repeat hit) ---------------

/// A 156-token request whose cache key is ~1,080 bytes, the average
/// serve-repeat key.
const model::ServeRequest &cacheKeyRequest() {
  static model::ServeRequest Request = [] {
    const char *const Vocab[] = {
        "local.get", "<param>", "i32.const", "8",   "i32.add", "i32.load",
        "call",      "<func>",  "br_if",     "i32.store", "end", "if"};
    model::ServeRequest Out;
    for (size_t I = 0; I < 156; ++I)
      Out.InputTokens.push_back(Vocab[(I * 7) % std::size(Vocab)]);
    return Out;
  }();
  return Request;
}

void BM_CacheKeyRequestKey(benchmark::State &State) {
  const model::ServeRequest &Request = cacheKeyRequest();
  for (auto _ : State) {
    std::string Key = model::PredictionCache::requestKey(Request, 128, 5, 5);
    benchmark::DoNotOptimize(Key.data());
  }
  State.SetBytesProcessed(
      int64_t(State.iterations()) *
      int64_t(model::PredictionCache::requestKey(Request, 128, 5, 5).size()));
}
BENCHMARK(BM_CacheKeyRequestKey);

/// Bucket hash of one key: keyHash (the cache's, word at a time) against
/// hashString (FNV-1a, byte-serial; the persisted digests' hash).
void benchCacheKeyHash(benchmark::State &State,
                       uint64_t (*Hash)(std::string_view)) {
  std::string Key =
      model::PredictionCache::requestKey(cacheKeyRequest(), 128, 5, 5);
  for (auto _ : State) {
    benchmark::DoNotOptimize(Key.data());
    uint64_t H = Hash(Key);
    benchmark::DoNotOptimize(H);
  }
  State.SetBytesProcessed(int64_t(State.iterations()) * int64_t(Key.size()));
}

void BM_CacheKeyHash(benchmark::State &State) {
  benchCacheKeyHash(State, &model::PredictionCache::keyHash);
}
BENCHMARK(BM_CacheKeyHash);

void BM_CacheKeyHashStringFnv(benchmark::State &State) {
  benchCacheKeyHash(State, &hashString);
}
BENCHMARK(BM_CacheKeyHashStringFnv);

} // namespace

BENCHMARK_MAIN();
