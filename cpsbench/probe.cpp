//===- cpsbench/probe.cpp - In-process half of the cpsflow benchmark ------===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's in-process probe; run.py drives it and the `cpsflow`
/// binary. Programs travel as JSON lines {"name": ..., "src": ...}.
///
///   cpsbench_probe gen WORKLOAD --seed N [--corpus DIR] [--count N]
///       Prints the generated programs of batch-corpus or batch-wide as
///       source text, each with "tree": whether its syntactic leg takes
///       the pointer-tree engine (closure or continuation universe > 128).
///   cpsbench_probe check FILE
///       Prints the expected answer of each program's legs (all five, or
///       those a line's "legs" array names). Direct,
///       semantic, syntactic and dup come from the tests/reference seed
///       analyzers. Pushdown comes from the production analyzer, accepted
///       only if it satisfies the O7 ordering against the reference
///       syntactic answer (never less precise) and the reference direct
///       answer (equal on merge-free, cut-free runs).
///   cpsbench_probe load SOCKET FILE [--connections N] [--base ID]
///       Drives a `cpsflow serve` daemon from one client process (see
///       cmdLoad).
///   cpsbench_probe spawn PROGRAM ARGS...
///       Runs PROGRAM as a child and prints its wall time and peak RSS
///       (see cmdSpawn).
///   cpsbench_probe trace FILE --seconds S --trace-out FILE
///       Runs the batch pipeline over the programs in repeated passes,
///       alternating untimed-span and spanned passes, and prints one JSON
///       object: per-layer time per pass, per-leg counters, span coverage,
///       tracing overhead, and the first pass's answers. Writes the spans
///       as a Chrome trace.
///
/// Every analysis uses the batch and serve defaults: the constant domain,
/// free variables bound to the numeric top, a 5,000,000-goal budget, loop
/// unroll 64, dup budget 2, continuation summaries on.
///
//===----------------------------------------------------------------------===//

#include "analysis/Compare.h"
#include "analysis/DirectAnalyzer.h"
#include "analysis/DupAnalyzer.h"
#include "analysis/PushdownAnalyzer.h"
#include "analysis/SemanticCpsAnalyzer.h"
#include "analysis/SyntacticCpsAnalyzer.h"
#include "anf/Anf.h"
#include "clients/Batch.h"
#include "cps/Transform.h"
#include "domain/NumDomain.h"
#include "gen/Generator.h"
#include "gen/Workloads.h"
#include "reference/RefDirectAnalyzer.h"
#include "reference/RefDupAnalyzer.h"
#include "reference/RefSemanticCpsAnalyzer.h"
#include "reference/RefSyntacticCpsAnalyzer.h"
#include "support/Json.h"
#include "support/JsonParse.h"
#include "support/Rng.h"
#include "syntax/Analysis.h"
#include "syntax/Printer.h"
#include "syntax/Sugar.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace cpsflow;
using D = domain::ConstantDomain;
using Clock = std::chrono::steady_clock;

namespace {

constexpr uint64_t DupBudget = 2;
constexpr size_t UniverseLimit = 128; // widest set the arena-IR engine packs

const char *const LegNames[] = {"direct", "semantic", "syntactic", "dup",
                                "pushdown"};
constexpr size_t NumLegs = 5;

struct Program {
  std::string Name;
  std::string Src;
  bool Tree = false;
  std::set<std::string> Legs; ///< legs to check; empty = all five
};

[[noreturn]] void die(const std::string &Message) {
  std::fprintf(stderr, "cpsbench_probe: %s\n", Message.c_str());
  std::exit(2);
}

analysis::AnalyzerOptions defaultOptions(uint64_t MaxGoals = 5'000'000) {
  analysis::AnalyzerOptions O;
  O.MaxGoals = MaxGoals;
  O.LoopUnroll = 64;
  O.UseSummaries = true;
  return O;
}

bool completed(const analysis::AnalyzerStats &S) {
  return !S.BudgetExhausted && S.Degraded == support::DegradeReason::None;
}

/// Layers timed around their public calls, in pipeline order.
enum Layer : unsigned {
  LParse,
  LAnf,
  LCps,
  LBind,
  LDirect,
  LSemantic,
  LSyntactic,
  LDup,
  LPushdown,
  LRender,
  NumLayers
};
const char *const LayerNames[NumLayers] = {
    "syntax.parse",      "anf.normalize",       "cps.transform",
    "analysis.bind",     "analysis.direct",     "analysis.semantic",
    "analysis.syntactic", "analysis.dup",       "analysis.pushdown",
    "clients.render"};

/// Runs a step without timing it.
struct Untimed {
  template <typename Fn> auto operator()(unsigned, Fn &&F) const {
    return F();
  }
};

/// Whether the syntactic leg takes the pointer-tree engine: the arena-IR
/// engine packs universes of at most UniverseLimit members.
bool takesTreeEngine(const analysis::SyntacticCpsAnalyzer<D> &A) {
  return A.closureUniverse().size() > UniverseLimit ||
         A.kontUniverse().size() > UniverseLimit;
}

/// One program through parse, ANF and CPS, with its free variables bound
/// to the numeric top the way `cpsflow batch` and `cpsflow serve` bind
/// them. \p Time(layer, step) runs each step, and may time it. Holds its
/// Context, so it stays where it was built.
struct Pipeline {
  Context Ctx;
  const syntax::Term *Anf = nullptr;
  std::optional<cps::CpsProgram> Cps;
  std::vector<analysis::DirectBinding<D>> Init;
  std::vector<analysis::CpsBinding<D>> CInit;
  std::string Error;

  template <typename TimeFn>
  Pipeline(const std::string &Src, TimeFn &&Time) {
    Result<const syntax::Term *> Parsed = Time(
        LParse, [&] { return syntax::parseSugaredProgram(Ctx, Src); });
    if (!Parsed) {
      Error = "parse: " + Parsed.error().str();
      return;
    }
    Anf = Time(LAnf, [&] { return anf::normalizeProgram(Ctx, *Parsed); });
    Result<cps::CpsProgram> C =
        Time(LCps, [&] { return cps::cpsTransform(Ctx, Anf); });
    if (!C) {
      Error = "cps: " + C.error().str();
      return;
    }
    Cps.emplace(C.take());
    Time(LBind, [&] {
      for (Symbol X : syntax::freeVars(Anf))
        Init.push_back({X, domain::AbsVal<D>::number(D::top())});
      for (const analysis::DirectBinding<D> &B : Init)
        CInit.push_back({B.Var, analysis::deltaE<D>(B.Value, *Cps)});
      return 0;
    });
  }
  explicit Pipeline(const std::string &Src) : Pipeline(Src, Untimed{}) {}
  bool ok() const { return Error.empty(); }

  bool tree() const {
    return takesTreeEngine(
        analysis::SyntacticCpsAnalyzer<D>(Ctx, *Cps, CInit, defaultOptions()));
  }

  /// Goals of all five legs together, or nothing when a leg does not
  /// complete within \p MaxGoals goals.
  std::optional<uint64_t> goalsWithin(uint64_t MaxGoals) const {
    analysis::AnalyzerOptions O = defaultOptions(MaxGoals);
    const analysis::AnalyzerStats Stats[] = {
        analysis::DirectAnalyzer<D>(Ctx, Anf, Init, O).run().Stats,
        analysis::SemanticCpsAnalyzer<D>(Ctx, Anf, Init, O).run().Stats,
        analysis::SyntacticCpsAnalyzer<D>(Ctx, *Cps, CInit, O).run().Stats,
        analysis::DupAnalyzer<D>(Ctx, Anf, Init, DupBudget, O).run().Stats,
        analysis::PushdownAnalyzer<D>(Ctx, Anf, Init, O).run().Stats};
    uint64_t Goals = 0;
    for (const analysis::AnalyzerStats &S : Stats) {
      if (!completed(S))
        return std::nullopt;
      Goals += S.Goals;
    }
    return Goals;
  }
};

// ===-- Input and output --==============================================//

std::vector<Program> readPrograms(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot read '" + Path + "'");
  std::vector<Program> Out;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    Result<JsonValue> Doc = parseJson(Line);
    if (!Doc || !Doc->isObject() || !Doc->find("name") || !Doc->find("src"))
      die("malformed program line in '" + Path + "'");
    Program P{Doc->find("name")->asString(), Doc->find("src")->asString(),
              false, {}};
    if (const JsonValue *Legs = Doc->find("legs"))
      for (const JsonValue &L : Legs->items())
        P.Legs.insert(L.asString());
    Out.push_back(std::move(P));
  }
  return Out;
}

void printProgram(const Program &P) {
  JsonWriter W;
  W.beginObject();
  W.key("name").value(P.Name);
  W.key("src").value(P.Src);
  W.key("tree").value(P.Tree);
  W.endObject();
  std::cout << W.str() << '\n';
}

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

// ===-- gen --===========================================================//

/// Renders \p T as parseable source: the fresh names of generated
/// programs carry '%', which the surface syntax reserves, so it becomes
/// '_' (generated programs use no '_' of their own).
std::string printSource(const Context &Ctx, const syntax::Term *T) {
  std::string S = syntax::print(Ctx, T);
  if (S.find('_') != std::string::npos)
    die("generated program already uses '_': " + S);
  std::replace(S.begin(), S.end(), '%', '_');
  return S;
}

/// Work bounds a program must meet to be kept. The band on all five
/// legs' goals keeps seeded draws alike in cost, so the seed moves the
/// inputs, not the workload's size.
struct Screen {
  uint64_t MaxGoals;              ///< per leg; a leg that needs more degrades
  uint64_t MinGoals = 0;          ///< all five legs together, at least
  uint64_t MaxTotal = UINT64_MAX; ///< all five legs together, at most
  bool RequireIr = false;
};

/// Adds a program after checking it parses, transforms and meets \p S.
/// \returns whether it was kept.
bool keep(std::vector<Program> &Out, std::set<std::string> &Seen,
          std::string Name, std::string Src, const Screen &S) {
  if (!Seen.insert(Src).second)
    return false;
  Pipeline P(Src);
  if (!P.ok())
    return false;
  bool Tree = P.tree();
  if (S.RequireIr && Tree)
    return false;
  std::optional<uint64_t> Goals = P.goalsWithin(S.MaxGoals);
  if (!Goals || *Goals < S.MinGoals || *Goals > S.MaxTotal)
    return false;
  Out.push_back({std::move(Name), std::move(Src), Tree, {}});
  return true;
}

/// Seeded well-typed gen::ProgramGenerator draws with chain lengths in
/// [MinChain, MaxChain]; keeps the first \p Want that pass \p S.
void addDraws(std::vector<Program> &Out, std::set<std::string> &Seen,
              Rng &R, const char *Stem, size_t Want, uint32_t MinChain,
              uint32_t MaxChain, const Screen &S) {
  size_t Kept = 0;
  for (size_t Try = 0; Kept < Want && Try < 200 * Want; ++Try) {
    gen::GenOptions G;
    G.Seed = R.next();
    G.NumFreeVars = 1 + static_cast<uint32_t>(R.below(3));
    G.ChainLength = MinChain + static_cast<uint32_t>(
                                   R.below(MaxChain - MinChain + 1));
    G.MaxDepth = 2 + static_cast<uint32_t>(R.below(2));
    G.NumeralRange = 5;
    G.WellTyped = true;
    G.AllowLoop = R.chance(1, 8);
    std::string Src;
    {
      Context Ctx;
      gen::ProgramGenerator Gen(Ctx, G);
      Src = printSource(Ctx, Gen.generate());
    }
    char Name[64];
    std::snprintf(Name, sizeof(Name), "%s-%02zu.scm", Stem, Kept);
    if (keep(Out, Seen, Name, std::move(Src), S))
      ++Kept;
  }
}

/// gen::callMergeChain as a closed program: each call site calls one of
/// its own two constant closures, chosen on a free input. The family
/// itself binds the choice in the initial store, which source text
/// cannot express.
std::string callMergeSource(uint32_t N) {
  std::string S;
  for (uint32_t I = 0; I < N; ++I) {
    std::string Id = std::to_string(I);
    S += "(let (f" + Id + " (if0 z" + Id + " (lambda (d) 0) (lambda (d) 1))) ";
    S += "(let (a" + Id + " (f" + Id + " 3)) ";
    S += "(let (b" + Id + " (if0 a" + Id + " 5 (let (u" + Id + " (sub1 a" +
         Id + ")) (if0 u" + Id + " 5 6)))) ";
  }
  S += "b" + std::to_string(N - 1);
  S += std::string(3 * N, ')');
  return S;
}

int cmdGen(const std::string &Workload, uint64_t Seed,
           const std::string &Corpus, size_t Count) {
  std::vector<Program> Out;
  std::set<std::string> Seen;
  Rng R(Seed * 0x9E3779B97F4A7C15ull + 1);
  if (Workload == "batch-corpus") {
    std::vector<std::filesystem::path> Files;
    for (const auto &E : std::filesystem::directory_iterator(Corpus))
      if (E.path().extension() == ".scm")
        Files.push_back(E.path());
    std::sort(Files.begin(), Files.end());
    for (const auto &F : Files)
      if (!keep(Out, Seen, F.filename().string(), readFile(F),
                {5'000'000, 0, UINT64_MAX, /*RequireIr=*/true}))
        die("corpus program " + F.string() + " does not qualify");
    addDraws(Out, Seen, R, "draw", Count, 6, 14,
             {600, 150, 400, /*RequireIr=*/true});
  } else if (Workload == "batch-wide") {
    auto Family = [&](const char *Name, uint32_t N,
                      analysis::Witness (*Make)(Context &, uint32_t)) {
      Context Ctx;
      analysis::Witness W = Make(Ctx, N);
      std::string File = std::string(Name) + "-" + std::to_string(N) + ".scm";
      if (!keep(Out, Seen, File, printSource(Ctx, W.Anf), {5'000'000}))
        die("family program " + File + " does not qualify");
    };
    for (uint32_t N : {64u, 72u, 80u, 88u, 96u})
      Family("closure-tower", N, gen::closureTower);
    for (uint32_t N : {128u, 136u})
      Family("converging-chain", N, gen::convergingChain);
    for (uint32_t N : {10u, 12u})
      Family("conditional-chain", N, gen::conditionalChain);
    if (!keep(Out, Seen, "call-merge-10.scm", callMergeSource(10),
              {5'000'000}))
      die("call-merge program does not qualify");
    addDraws(Out, Seen, R, "wide-draw", Count, 24, 32, {2'000, 3'000, 5'000});
  } else {
    die("unknown workload '" + Workload + "'");
  }
  for (const Program &P : Out)
    printProgram(P);
  return 0;
}

// ===-- check --=========================================================//

/// The O7 ordering (fuzz/Oracles.h), with the reference analyzers on the
/// other side: pushdown never less precise than syntactic (value half
/// only under cuts), and on cut-free runs at least as precise as direct,
/// equal when the run is merge-free. \returns an empty string when it
/// holds.
std::string checkPushdown(const Pipeline &P,
                          const analysis::DirectResult<D> &Pd,
                          const analysis::DirectResult<D> &RefDirect,
                          const analysis::SyntacticResult<D> &RefSyn,
                          const analysis::AnalyzerStats &DirectStats) {
  using analysis::PrecisionOrder;
  auto AtLeast = [](PrecisionOrder O) {
    return O == PrecisionOrder::Equal || O == PrecisionOrder::LeftMorePrecise;
  };
  std::vector<Symbol> Vars = syntax::collectVariables(P.Anf);
  analysis::Comparison PvC =
      analysis::compareWithSyntactic<D>(P.Ctx, Pd, RefSyn, *P.Cps, Vars);
  bool CutFree = Pd.Stats.Cuts == 0 && RefSyn.Stats.Cuts == 0;
  if (!AtLeast(CutFree ? PvC.Overall : PvC.OnValue))
    return std::string("pushdown vs reference syntactic is '") +
           analysis::str(CutFree ? PvC.Overall : PvC.OnValue) + "'";
  if (Pd.Stats.Cuts == 0 && RefDirect.Stats.Cuts == 0) {
    analysis::Comparison PvD =
        analysis::compareDirectWorld<D>(P.Ctx, Pd, RefDirect, Vars);
    // The reference analyzers predate the join counter, so the merge-free
    // test reads it from the production direct run.
    bool MergeFree = DirectStats.Joins == 0 &&
                     RefDirect.Stats.DeadPaths == 0 &&
                     Pd.Stats.DeadPaths == 0;
    if (MergeFree ? PvD.Overall != PrecisionOrder::Equal
                  : !AtLeast(PvD.Overall))
      return std::string("pushdown vs reference direct is '") +
             analysis::str(PvD.Overall) + "'";
  }
  return "";
}

int cmdCheck(const std::string &Path) {
  for (const Program &Prog : readPrograms(Path)) {
    JsonWriter W;
    W.beginObject();
    W.key("name").value(Prog.Name);
    Pipeline P(Prog.Src);
    if (!P.ok()) {
      W.key("error").value(P.Error);
      W.endObject();
      std::cout << W.str() << '\n';
      continue;
    }
    auto Wants = [&](const char *Leg) {
      return Prog.Legs.empty() || Prog.Legs.count(Leg);
    };
    analysis::AnalyzerOptions O = defaultOptions();
    std::string Error;
    W.key("answers").beginObject();
    auto Answer = [&](const char *Leg, const auto &R) {
      if (R.Stats.BudgetExhausted)
        Error = std::string("the ") + Leg + " oracle exhausted its budget";
      W.key(Leg).value(R.Answer.Value.str(P.Ctx));
    };
    std::optional<analysis::DirectResult<D>> RefDirect;
    std::optional<analysis::SyntacticResult<D>> RefSyn;
    if (Wants("direct") || Wants("pushdown")) {
      RefDirect = refimpl::RefDirectAnalyzer<D>(P.Ctx, P.Anf, P.Init, O).run();
      Answer("direct", *RefDirect);
    }
    if (Wants("semantic"))
      Answer("semantic",
             refimpl::RefSemanticCpsAnalyzer<D>(P.Ctx, P.Anf, P.Init, O).run());
    if (Wants("syntactic") || Wants("pushdown")) {
      RefSyn = refimpl::RefSyntacticCpsAnalyzer<D>(P.Ctx, *P.Cps, P.CInit, O)
                   .run();
      Answer("syntactic", *RefSyn);
    }
    if (Wants("dup"))
      Answer("dup", refimpl::RefDupAnalyzer<D>(
                        P.Ctx, P.Anf, P.Init,
                        static_cast<uint32_t>(DupBudget), O)
                        .run());
    if (Wants("pushdown")) {
      auto Pd = analysis::PushdownAnalyzer<D>(P.Ctx, P.Anf, P.Init, O).run();
      auto Direct =
          analysis::DirectAnalyzer<D>(P.Ctx, P.Anf, P.Init, O).run();
      if (!completed(Pd.Stats))
        Error = "the pushdown run exhausted its budget";
      else if (Error.empty())
        Error = checkPushdown(P, Pd, *RefDirect, *RefSyn, Direct.Stats);
      Answer("pushdown", Pd);
    }
    W.endObject();
    if (!Error.empty())
      W.key("error").value(Error);
    W.endObject();
    std::cout << W.str() << '\n';
  }
  return 0;
}

// ===-- trace --=========================================================//

struct SpanRec {
  unsigned Layer;
  uint32_t Prog; ///< program index; UINT32_MAX for pass-level work
  double StartUs, EndUs;
};

/// Per-leg work counters of one pass, summed over its programs.
struct LegCounts {
  uint64_t Goals = 0, CacheHits = 0, Stores = 0, StoreBytes = 0,
           SummaryHits = 0, SummaryMisses = 0;
  void add(const analysis::AnalyzerStats &S) {
    Goals += S.Goals;
    CacheHits += S.CacheHits;
    Stores += S.InternedStores;
    StoreBytes += S.InternerBytes;
    SummaryHits += S.SummaryHits;
    SummaryMisses += S.SummaryMisses;
  }
  bool operator==(const LegCounts &) const = default;
};

struct PassCounts {
  std::array<LegCounts, NumLegs> Legs;
  uint64_t TreePrograms = 0;
  uint64_t Degraded = 0;
  bool operator==(const PassCounts &) const = default;
};

/// Times calls into the layers of one pass. When off it only runs them,
/// so spanned and unspanned passes do the same work.
class Spanner {
public:
  Spanner(bool On, Clock::time_point Epoch, std::vector<SpanRec> *Keep,
          size_t KeepCap)
      : On(On), Epoch(Epoch), Keep(Keep), KeepCap(KeepCap) {}

  template <typename Fn> auto time(unsigned L, uint32_t Prog, Fn &&F) {
    if (!On)
      return F();
    double T0 = nowUs();
    auto R = F();
    double T1 = nowUs();
    Ms[L] += (T1 - T0) / 1000.0;
    if (Keep && Keep->size() < KeepCap)
      Keep->push_back({L, Prog, T0, T1});
    return R;
  }

  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
        .count();
  }

  std::array<double, NumLayers> Ms{};

private:
  bool On;
  Clock::time_point Epoch;
  std::vector<SpanRec> *Keep;
  size_t KeepCap;
};

clients::BatchAnalyzerRecord record(const Context &Ctx, const auto &R) {
  clients::BatchAnalyzerRecord Rec;
  Rec.Answer = R.Answer.Value.str(Ctx);
  Rec.Stats = R.Stats;
  return Rec;
}

/// One pass over \p Progs through parse, ANF, CPS, binding, the five legs
/// and rendering (the per-program answers and the batch report), the
/// same pipeline `cpsflow batch` runs per program.
clients::BatchResult runPass(const std::vector<Program> &Progs, Spanner &S,
                             PassCounts &Counts) {
  clients::BatchResult BR;
  BR.Programs.resize(Progs.size());
  analysis::AnalyzerOptions O = defaultOptions();
  for (uint32_t I = 0; I < Progs.size(); ++I) {
    clients::BatchProgramResult &Out = BR.Programs[I];
    Out.Name = Progs[I].Name;
    Pipeline P(Progs[I].Src, [&](unsigned L, auto &&F) {
      return S.time(L, I, F);
    });
    if (!P.ok())
      die(Progs[I].Name + ": " + P.Error);
    const Context &Ctx = P.Ctx;

    std::optional<analysis::DirectAnalyzer<D>> AD;
    std::optional<analysis::SemanticCpsAnalyzer<D>> AS;
    std::optional<analysis::SyntacticCpsAnalyzer<D>> AC;
    std::optional<analysis::DupAnalyzer<D>> ADup;
    std::optional<analysis::PushdownAnalyzer<D>> APd;
    S.time(LBind, I, [&] {
      AD.emplace(Ctx, P.Anf, P.Init, O);
      AS.emplace(Ctx, P.Anf, P.Init, O);
      AC.emplace(Ctx, *P.Cps, P.CInit, O);
      ADup.emplace(Ctx, P.Anf, P.Init, DupBudget, O);
      APd.emplace(Ctx, P.Anf, P.Init, O);
      return 0;
    });
    if (takesTreeEngine(*AC))
      ++Counts.TreePrograms;

    // Each analyzer is destroyed inside its own span: its tables are
    // that leg's work.
    auto Leg = [&](unsigned L, auto &A) {
      return S.time(L, I, [&] {
        auto R = A->run();
        A.reset();
        return R;
      });
    };
    auto RD = Leg(LDirect, AD);
    auto RS = Leg(LSemantic, AS);
    auto RC = Leg(LSyntactic, AC);
    auto RDup = Leg(LDup, ADup);
    auto RPd = Leg(LPushdown, APd);

    S.time(LRender, I, [&] {
      Out.Nodes = syntax::countNodes(P.Anf);
      Out.Direct = record(Ctx, RD);
      Out.Semantic = record(Ctx, RS);
      Out.Syntactic = record(Ctx, RC);
      Out.Dup = record(Ctx, RDup);
      Out.Pushdown = record(Ctx, RPd);
      Out.Ok = true;
      return 0;
    });
    const analysis::AnalyzerStats *Stats[NumLegs] = {
        &RD.Stats, &RS.Stats, &RC.Stats, &RDup.Stats, &RPd.Stats};
    for (size_t L = 0; L < NumLegs; ++L) {
      Counts.Legs[L].add(*Stats[L]);
      if (!completed(*Stats[L]))
        ++Counts.Degraded;
    }
  }
  clients::BatchOptions BOpts;
  BOpts.IncludeTiming = false;
  std::string Report = S.time(LRender, UINT32_MAX,
                              [&] { return clients::batchJson(BR, BOpts); });
  if (Report.empty())
    die("empty batch report");
  return BR;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

void writeChromeTrace(const std::string &Path,
                      const std::vector<Program> &Progs,
                      const std::vector<SpanRec> &Spans,
                      const std::vector<std::pair<double, double>> &Passes) {
  JsonWriter W;
  W.beginObject();
  W.key("traceEvents").beginArray();
  auto Event = [&](const std::string &Name, const char *Cat, double Start,
                   double End) {
    W.beginObject();
    W.key("name").value(Name);
    W.key("cat").value(Cat);
    W.key("ph").value("X");
    W.key("ts").value(Start);
    W.key("dur").value(End - Start);
    W.key("pid").value(1);
    W.key("tid").value(1);
    W.endObject();
  };
  for (const auto &[Start, End] : Passes)
    Event("pass", "pass", Start, End);
  for (const SpanRec &Sp : Spans)
    Event(std::string(LayerNames[Sp.Layer]) +
              (Sp.Prog < Progs.size() ? " " + Progs[Sp.Prog].Name : ""),
          "layer", Sp.StartUs, Sp.EndUs);
  W.endArray();
  W.endObject();
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << W.str();
  if (!Out)
    die("cannot write '" + Path + "'");
}

int cmdTrace(const std::string &Path, double Seconds,
             const std::string &TraceOut) {
  std::vector<Program> Progs = readPrograms(Path);
  if (Progs.empty())
    die("no programs in '" + Path + "'");
  const Clock::time_point Epoch = Clock::now();
  std::vector<SpanRec> Kept;
  const size_t KeepCap = 20'000;
  std::vector<std::pair<double, double>> PassSpans;

  std::vector<double> PlainMs, SpannedMs, Coverage;
  std::vector<std::array<double, NumLayers>> LayerMs;
  std::optional<PassCounts> First;
  bool Repeats = true;
  clients::BatchResult FirstResult;

  // Alternate unspanned and spanned passes until the time is up, with at
  // least three of each.
  for (size_t Pass = 0;; ++Pass) {
    double Elapsed =
        std::chrono::duration<double>(Clock::now() - Epoch).count();
    if (Pass >= 6 && Elapsed >= Seconds)
      break;
    const bool On = Pass % 2 == 1;
    Spanner S(On, Epoch, On ? &Kept : nullptr, KeepCap);
    PassCounts Counts;
    double T0 = S.nowUs();
    clients::BatchResult BR = runPass(Progs, S, Counts);
    double T1 = S.nowUs();
    double Ms = (T1 - T0) / 1000.0;
    if (On) {
      SpannedMs.push_back(Ms);
      LayerMs.push_back(S.Ms);
      double Covered = 0;
      for (double X : S.Ms)
        Covered += X;
      Coverage.push_back(Covered / Ms);
      if (Kept.size() < KeepCap)
        PassSpans.push_back({T0, T1});
    } else {
      PlainMs.push_back(Ms);
    }
    if (!First) {
      First = Counts;
      FirstResult = std::move(BR);
    } else if (!(Counts == *First)) {
      Repeats = false;
    }
  }
  writeChromeTrace(TraceOut, Progs, Kept, PassSpans);

  JsonWriter W;
  W.beginObject();
  W.key("programs").value(static_cast<uint64_t>(Progs.size()));
  W.key("passes").value(static_cast<uint64_t>(SpannedMs.size()));
  W.key("layers_ms").beginObject();
  for (unsigned L = 0; L < NumLayers; ++L) {
    std::vector<double> V;
    for (const auto &Row : LayerMs)
      V.push_back(Row[L]);
    W.key(LayerNames[L]).value(median(V));
  }
  W.endObject();
  W.key("pass_ms").value(median(SpannedMs));
  W.key("coverage").value(median(Coverage));
  W.key("overhead").value(median(SpannedMs) / median(PlainMs));
  W.key("repeats").value(Repeats);
  W.key("tree_programs").value(First->TreePrograms);
  W.key("degraded_legs").value(First->Degraded);
  W.key("legs").beginObject();
  for (size_t L = 0; L < NumLegs; ++L) {
    const LegCounts &C = First->Legs[L];
    W.key(LegNames[L]).beginObject();
    W.key("goals").value(C.Goals);
    W.key("cacheHits").value(C.CacheHits);
    W.key("stores").value(C.Stores);
    W.key("storeBytes").value(C.StoreBytes);
    W.key("summaryHits").value(C.SummaryHits);
    W.key("summaryMisses").value(C.SummaryMisses);
    W.endObject();
  }
  W.endObject();
  W.key("answers").beginArray();
  for (const clients::BatchProgramResult &P : FirstResult.Programs) {
    W.beginObject();
    W.key("name").value(P.Name);
    W.key("direct").value(P.Direct.Answer);
    W.key("semantic").value(P.Semantic.Answer);
    W.key("syntactic").value(P.Syntactic.Answer);
    W.key("dup").value(P.Dup.Answer);
    W.key("pushdown").value(P.Pushdown.Answer);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  std::cout << W.str() << '\n';
  return 0;
}

// ===-- load --==========================================================//

/// One client connection of the load generator.
struct LoadConn {
  int Fd = -1;
  std::string In; ///< bytes received, not yet a whole line
};

/// The top-level "id" of a response line: responses start with
/// {"ok":...,"id":N, and carry no program text that could contain it.
int64_t responseId(const std::string &Line) {
  size_t At = Line.find("\"id\":");
  if (At == std::string::npos)
    return -1;
  return std::strtoll(Line.c_str() + At + 5, nullptr, 10);
}

void writeAll(int Fd, const std::string &Data) {
  size_t Done = 0;
  while (Done < Data.size()) {
    ssize_t N = ::write(Fd, Data.data() + Done, Data.size() - Done);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      die(std::string("write to the daemon: ") + std::strerror(errno));
    Done += static_cast<size_t>(N);
  }
}

/// Drives a daemon from one client process the way an editor does: FILE
/// holds one analyze request per line, request i with id BASE + i, and
/// each of N connections keeps one request outstanding. Prints per
/// request "<sent us>\t<received us>\t<response>", times from the start.
int cmdLoad(const std::string &Socket, const std::string &Path,
            unsigned Conns, int64_t Base) {
  std::vector<std::string> Lines;
  {
    std::ifstream In(Path);
    if (!In)
      die("cannot read '" + Path + "'");
    std::string Line;
    while (std::getline(In, Line))
      Lines.push_back(Line + "\n");
  }
  std::vector<LoadConn> C(Conns);
  std::vector<pollfd> Polls(Conns);
  for (unsigned I = 0; I < Conns; ++I) {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Socket.size() >= sizeof(Addr.sun_path))
      die("socket path too long");
    std::memcpy(Addr.sun_path, Socket.c_str(), Socket.size() + 1);
    C[I].Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (C[I].Fd < 0 || ::connect(C[I].Fd, reinterpret_cast<sockaddr *>(&Addr),
                                 sizeof(Addr)) < 0)
      die("cannot connect to '" + Socket + "'");
    Polls[I] = {C[I].Fd, POLLIN, 0};
  }

  const size_t N = Lines.size();
  std::vector<double> Sent(N), Got(N);
  std::vector<char> Answered(N, 0);
  std::vector<std::string> Resp(N);
  const Clock::time_point Start = Clock::now();
  auto NowUs = [&] {
    return std::chrono::duration<double, std::micro>(Clock::now() - Start)
        .count();
  };
  size_t Next = 0, Outstanding = 0;
  auto Send = [&](const LoadConn &K) {
    Sent[Next] = NowUs();
    writeAll(K.Fd, Lines[Next]);
    ++Outstanding;
    ++Next;
  };
  for (const LoadConn &K : C)
    if (Next < N)
      Send(K);
  char Buf[1 << 16];
  while (Outstanding) {
    int Ready = ::poll(Polls.data(), Polls.size(), 60'000);
    if (Ready < 0 && errno == EINTR)
      continue;
    if (Ready <= 0)
      die("the daemon stopped answering");
    for (unsigned K = 0; K < Conns; ++K) {
      if (!(Polls[K].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      ssize_t Read = ::read(C[K].Fd, Buf, sizeof(Buf));
      if (Read <= 0)
        die("the daemon closed a connection");
      const double T = NowUs();
      C[K].In.append(Buf, static_cast<size_t>(Read));
      size_t From = 0, Nl;
      while ((Nl = C[K].In.find('\n', From)) != std::string::npos) {
        std::string Line = C[K].In.substr(From, Nl - From);
        From = Nl + 1;
        int64_t Id = responseId(Line) - Base;
        if (Id < 0 || static_cast<size_t>(Id) >= Next || Answered[Id])
          die("unexpected response: " + Line);
        Answered[Id] = 1;
        Got[Id] = T;
        Resp[Id] = std::move(Line);
        --Outstanding;
        if (Next < N)
          Send(C[K]);
      }
      C[K].In.erase(0, From);
    }
  }
  for (LoadConn &K : C)
    ::close(K.Fd);
  std::string Out;
  char Times[64];
  for (size_t I = 0; I < N; ++I) {
    std::snprintf(Times, sizeof(Times), "%.3f\t%.3f\t", Sent[I], Got[I]);
    Out += Times;
    Out += Resp[I];
    Out += '\n';
  }
  std::fwrite(Out.data(), 1, Out.size(), stdout);
  return 0;
}

// ===-- spawn --=========================================================//

/// Runs \p Args as a child, its stdout discarded, and prints
/// "<wall us>\t<peak RSS KiB>\t<exit status>". The child is forked from
/// this small process rather than from run.py because a child's peak
/// RSS counts the memory of the process it was forked from.
int cmdSpawn(const std::vector<std::string> &Args) {
  std::vector<char *> Argv;
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  const pid_t Parent = ::getpid();
  const Clock::time_point Start = Clock::now();
  const pid_t Pid = ::fork();
  if (Pid < 0)
    die(std::string("fork: ") + std::strerror(errno));
  if (Pid == 0) {
    // The child dies with this process, so a killed run leaves nothing.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != Parent)
      ::_exit(127);
    int Null = ::open("/dev/null", O_WRONLY);
    if (Null >= 0)
      ::dup2(Null, STDOUT_FILENO);
    ::execv(Argv[0], Argv.data());
    ::_exit(127);
  }
  int Status = 0;
  rusage Usage{};
  while (::wait4(Pid, &Status, 0, &Usage) < 0)
    if (errno != EINTR)
      die(std::string("wait4: ") + std::strerror(errno));
  const double Us =
      std::chrono::duration<double, std::micro>(Clock::now() - Start).count();
  const int Code = WIFEXITED(Status) ? WEXITSTATUS(Status)
                                     : 128 + WTERMSIG(Status);
  std::printf("%.3f\t%ld\t%d\n", Us, Usage.ru_maxrss, Code);
  return 0;
}

[[noreturn]] void usage() {
  die("usage: cpsbench_probe gen WORKLOAD --seed N [--corpus DIR] "
      "[--count N]\n"
      "       cpsbench_probe check FILE\n"
      "       cpsbench_probe spawn PROGRAM ARGS...\n"
      "       cpsbench_probe trace FILE --seconds S --trace-out FILE\n"
      "       cpsbench_probe load SOCKET FILE --connections N --base ID");
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  if (Args.size() < 2)
    usage();
  auto Flag = [&](const std::string &Name,
                  const std::string &Default) -> std::string {
    for (size_t I = 2; I + 1 < Args.size(); ++I)
      if (Args[I] == Name)
        return Args[I + 1];
    return Default;
  };
  const std::string &Cmd = Args[0];
  if (Cmd == "spawn")
    return cmdSpawn({Args.begin() + 1, Args.end()});
  if (Cmd == "gen")
    return cmdGen(Args[1], std::stoull(Flag("--seed", "1")),
                  Flag("--corpus", "examples/corpus"),
                  std::stoull(Flag("--count", "0")));
  if (Cmd == "check")
    return cmdCheck(Args[1]);
  if (Cmd == "load" && Args.size() >= 3)
    return cmdLoad(Args[1], Args[2],
                   static_cast<unsigned>(
                       std::stoul(Flag("--connections", "2"))),
                   std::stoll(Flag("--base", "0")));
  if (Cmd == "trace")
    return cmdTrace(Args[1], std::stod(Flag("--seconds", "5")),
                    Flag("--trace-out", "trace.json"));
  usage();
}
