/**
 * @file
 * perfbench_driver: the measuring half of the end-to-end benchmark.
 * perfbench/run.py builds it and drives one mode per process:
 *
 *   --mode setup --workload W       time one cold set-up (pool start,
 *                                   circuit/AET build, plonkSetup)
 *   --mode prove --workload W ...   plonky2-factorial / rollup-aggregate
 *   --mode serve --socket S         the proving daemon of service-zipfian
 *                                   (ProofService, 2 lanes); prints
 *                                   "ready", stops on stdin EOF
 *   --mode load --socket S ...      the closed-loop client of
 *                                   service-zipfian
 *
 * Common flags: --seed N --seconds S --trace 0|1 --spans PATH.
 *
 * End-to-end runs (--trace 0) leave obs disabled. Traced runs enable it
 * to read the program's counters, time each layer's public entry
 * points from here, replay the recorded KernelTrace through the ntt /
 * merkle / hash APIs, and write the driver's own spans to --spans.
 *
 * Every mode prints one JSON object on its last stdout line.
 */

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/bits.h"
#include "common/cli.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "hash/poseidon.h"
#include "load/generator.h"
#include "load/scenario.h"
#include "merkle/merkle_tree.h"
#include "ntt/ntt.h"
#include "obs/json_writer.h"
#include "obs/obs.h"
#include "serialize/proof_io.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "sim/simulator.h"
#include "unizk/pipeline.h"
#include "workloads/apps.h"

namespace {

using namespace unizk;
using service::ProveRequest;
using service::WireProtocol;

/** Prover threads of the multi-threaded runs (the machine's vCPUs). */
constexpr unsigned kThreads = 4;
/** service-zipfian: fixed schedule seed, size and shape of one round. */
constexpr uint64_t kScheduleSeed = 1;
constexpr uint64_t kServiceRequests = 200;
constexpr unsigned kServiceLanes = 2;
/** Rows of the Starky proof that stands in for the stark.* layers on
 *  plonky2-factorial. */
constexpr uint64_t kCompanionRows = 256;
/** Verifications per proof; verify_s takes their median. */
constexpr int kVerifyRepeats = 5;

// ---------------------------------------------------------------------
// Small helpers

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Sum over items of the median of each item's samples. */
double
sumOfMedians(const std::vector<std::vector<double>> &per_item)
{
    double sum = 0;
    for (const auto &samples : per_item)
        sum += median(samples);
    return sum;
}

/** Exact nearest-rank quantile of the samples. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

/** Peak resident set of this process (VmHWM), in MB. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1000.0;
    }
    return 0.0;
}

/**
 * Outcome bookkeeping of one run: operations attempted and failed, and
 * the output checks. A failed check is reported on stderr and turns
 * "correct" false; it does not stop the run.
 */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            correct = false;
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
        }
    }
};

using Metrics = std::map<std::string, std::pair<double, std::string>>;

void
printResult(const Tally &tally, const Metrics &metrics)
{
    obs::JsonWriter w(/*compact=*/true);
    w.beginObject();
    w.kv("correct", tally.correct);
    w.kv("attempted", tally.attempted);
    w.kv("failed", tally.failed);
    w.key("metrics").beginObject();
    for (const auto &[name, m] : metrics) {
        w.key(name).beginObject();
        w.kv("value", m.first);
        w.kv("unit", m.second);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
}

// ---------------------------------------------------------------------
// The benchmark's own spans: kept in memory, written once at the end
// as Chrome trace_event JSON (load it in Perfetto).

class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::string parent;
        uint64_t startNs = 0;
        uint64_t endNs = 0;
        uint64_t traceId = 0;
        uint32_t tid = 0;
    };

    uint64_t
    nowNs() const
    {
        return static_cast<uint64_t>(epoch_.elapsedSeconds() * 1e9);
    }

    void
    add(Span span)
    {
        MutexLock lock(mutex_);
        spans_.push_back(std::move(span));
    }

    /** Nested span on the main thread; seconds() reads its duration. */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name)
            : log_(log), name_(std::move(name)), start_(log.nowNs())
        {
            parent_ = log_.open_.empty() ? "" : log_.open_.back();
            log_.open_.push_back(name_);
        }

        ~Scope() { close(); }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** End the span now; returns its length in seconds. */
        double
        close()
        {
            if (!closed_) {
                closed_ = true;
                end_ = log_.nowNs();
                log_.open_.pop_back();
                log_.add({name_, parent_, start_, end_, 0, 0});
            }
            return static_cast<double>(end_ - start_) * 1e-9;
        }

      private:
        SpanLog &log_;
        std::string name_;
        std::string parent_;
        uint64_t start_;
        uint64_t end_ = 0;
        bool closed_ = false;
    };

    bool
    write(const std::string &path)
    {
        MutexLock lock(mutex_);
        obs::JsonWriter w(/*compact=*/true);
        w.beginObject();
        w.key("traceEvents").beginArray();
        for (const Span &s : spans_) {
            w.beginObject();
            w.kv("name", s.name);
            w.kv("ph", "X");
            w.kv("ts", static_cast<double>(s.startNs) / 1e3);
            w.kv("dur", static_cast<double>(s.endNs - s.startNs) / 1e3);
            w.kv("pid", uint64_t{1});
            w.kv("tid", static_cast<uint64_t>(s.tid));
            w.key("args").beginObject();
            w.kv("parent", s.parent);
            w.kv("traceId", s.traceId);
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
        return obs::writeFile(path, w.str());
    }

  private:
    Stopwatch epoch_;
    Mutex mutex_;
    std::vector<Span> spans_ UNIZK_GUARDED_BY(mutex_);
    std::vector<std::string> open_; ///< main-thread nesting only
};

// ---------------------------------------------------------------------
// Proof jobs: one statement, its configuration, and what proving it
// produced.

struct Job
{
    WireProtocol protocol = WireProtocol::Plonky2;
    AppId app = AppId::Factorial;
    size_t rows = 0;
    size_t reps = 0; ///< Plonky2 only
    FriConfig cfg;
};

bool
isPlonk(const Job &job)
{
    return job.protocol == WireProtocol::Plonky2;
}

std::vector<Job>
provingJobs(const std::string &workload)
{
    std::vector<Job> jobs;
    if (workload == "plonky2-factorial") {
        const WorkloadParams p = defaultParams(AppId::Factorial);
        jobs.push_back({WireProtocol::Plonky2, AppId::Factorial, p.rows,
                        p.repetitions, FriConfig::plonky2()});
    } else if (workload == "rollup-aggregate") {
        for (const AppId app :
             {AppId::Factorial, AppId::Fibonacci, AppId::Sha256}) {
            jobs.push_back({WireProtocol::Starky, app,
                            defaultParams(app).rows, 0,
                            FriConfig::starky()});
        }
        const WorkloadParams r = defaultParams(AppId::Recursion);
        jobs.push_back({WireProtocol::Plonky2, AppId::Recursion, r.rows,
                        r.repetitions, FriConfig::plonky2()});
    } else {
        unizk_fatal("unknown proving workload \"", workload, "\"");
    }
    return jobs;
}

/** The job a unizkd lane runs for @p req (same shape and config). */
Job
jobForRequest(const ProveRequest &req)
{
    return {req.protocol, req.app, service::requestRows(req),
            service::requestReps(req), service::requestFriConfig(req)};
}

/** A built (and, for Plonky2, preprocessed) statement. */
struct Instance
{
    Job job;
    std::optional<PlonkApp> plonk;
    std::optional<PlonkProvingKey> key;
    std::optional<StarkApp> stark;
};

Instance
buildInstance(const Job &job)
{
    Instance inst;
    inst.job = job;
    if (isPlonk(job))
        inst.plonk = buildPlonkApp(job.app, job.rows, job.reps);
    else
        inst.stark = buildStarkApp(job.app, job.rows);
    return inst;
}

void
setupInstance(Instance &inst)
{
    if (isPlonk(inst.job))
        inst.key = plonkSetup(inst.plonk->circuit, inst.job.cfg, {});
}

struct Proved
{
    std::vector<uint8_t> bytes;
    double seconds = 0.0;
    KernelTrace trace;
    KernelTimeBreakdown breakdown;
    size_t rows = 0; ///< trace length n of the proof
};

Proved
proveInstance(const Instance &inst, bool with_breakdown)
{
    Proved out;
    TraceRecorder recorder;
    ProverContext ctx;
    ctx.recorder = &recorder;
    if (with_breakdown)
        ctx.breakdown = &out.breakdown;
    if (isPlonk(inst.job)) {
        const Stopwatch watch;
        const PlonkProof proof =
            plonkProve(inst.plonk->circuit, *inst.key,
                       inst.plonk->witnesses, inst.job.cfg, ctx);
        out.seconds = watch.elapsedSeconds();
        out.bytes = serializePlonkProof(proof);
        out.rows = proof.rows;
    } else {
        const Stopwatch watch;
        const StarkProof proof = starkProve(
            *inst.stark->air, inst.stark->trace, inst.job.cfg, ctx);
        out.seconds = watch.elapsedSeconds();
        out.bytes = serializeStarkProof(proof);
        out.rows = proof.rows;
    }
    out.trace = recorder.takeTrace();
    return out;
}

using AnyProof = std::variant<PlonkProof, StarkProof>;

std::optional<AnyProof>
decodeProof(const Instance &inst, const std::vector<uint8_t> &bytes)
{
    if (isPlonk(inst.job)) {
        if (auto p = deserializePlonkProof(bytes))
            return AnyProof(std::move(*p));
    } else if (auto p = deserializeStarkProof(bytes)) {
        return AnyProof(std::move(*p));
    }
    return std::nullopt;
}

std::vector<uint8_t>
encodeProof(const AnyProof &proof)
{
    if (const auto *p = std::get_if<PlonkProof>(&proof))
        return serializePlonkProof(*p);
    return serializeStarkProof(std::get<StarkProof>(proof));
}

bool
verifyProof(const Instance &inst, const AnyProof &proof)
{
    if (const auto *p = std::get_if<PlonkProof>(&proof))
        return plonkVerify(inst.key->constants->cap(), *p, inst.job.cfg);
    return starkVerify(*inst.stark->air, std::get<StarkProof>(proof),
                       inst.job.cfg);
}

/**
 * Deserialize and verify; @p verify_s gets the median verification
 * time of kVerifyRepeats runs (one verification is milliseconds long).
 */
bool
verifyBytes(const Instance &inst, const std::vector<uint8_t> &bytes,
            double *verify_s)
{
    const auto proof = decodeProof(inst, bytes);
    if (!proof)
        return false;
    bool ok = true;
    std::vector<double> times;
    for (int r = 0; r < kVerifyRepeats; ++r) {
        const Stopwatch watch;
        ok &= verifyProof(inst, *proof);
        times.push_back(watch.elapsedSeconds());
    }
    *verify_s = median(times);
    return ok;
}

/** serialize(deserialize(bytes)) == bytes. */
bool
reencodesIdentically(const Instance &inst,
                     const std::vector<uint8_t> &bytes)
{
    const auto proof = decodeProof(inst, bytes);
    return proof && encodeProof(*proof) == bytes;
}

/**
 * Tamper with one element of the proof -- the PoW nonce, one digest of
 * one Merkle cap, one opened value -- each chosen from @p rng, and
 * check that each tampered proof is rejected. Three operations.
 */
void
checkTamperRejected(const Instance &inst,
                    const std::vector<uint8_t> &bytes, SplitMix64 &rng,
                    Tally &tally, const std::string &what)
{
    const auto honest = decodeProof(inst, bytes);
    tally.check(honest.has_value(), what + ": proof decodes");
    if (!honest)
        return;
    for (int kind = 0; kind < 3; ++kind) {
        AnyProof bad = *honest;
        std::visit(
            [&](auto &p) {
                std::vector<MerkleCap *> caps;
                std::vector<std::vector<Fp2>> *openings = &p.openings;
                if constexpr (std::is_same_v<std::decay_t<decltype(p)>,
                                             PlonkProof>) {
                    caps = {&p.wiresCap, &p.zCap, &p.quotientCap};
                } else {
                    caps = {&p.traceCap, &p.quotientCap};
                }
                for (MerkleCap &c : p.fri.layerCaps)
                    caps.push_back(&c);
                if (kind == 0) {
                    p.fri.powNonce += 1;
                } else if (kind == 1) {
                    MerkleCap &cap = *caps[rng.nextBelow(caps.size())];
                    HashOut &h = cap[rng.nextBelow(cap.size())];
                    Fp &e = h.elems[rng.nextBelow(h.elems.size())];
                    e += Fp::one();
                } else {
                    auto &row =
                        (*openings)[rng.nextBelow(openings->size())];
                    row[rng.nextBelow(row.size())] += Fp2::one();
                }
            },
            bad);
        tally.attempted += 1;
        const auto round_trip = decodeProof(inst, encodeProof(bad));
        const bool rejected = !round_trip || !verifyProof(inst, *round_trip);
        static const char *kinds[] = {"pow nonce", "cap digest",
                                      "opened value"};
        tally.check(rejected,
                    what + ": tampered " + kinds[kind] + " rejected");
    }
}

// ---------------------------------------------------------------------
// Work counts of a recorded kernel trace.

struct WorkCounts
{
    uint64_t ops = 0;
    uint64_t nttPoints = 0;
    uint64_t merkleLeaves = 0;
    uint64_t merkleTrees = 0;
    uint64_t merklePermutations = 0; ///< via MerkleTree::permutationCount
    uint64_t hashPermutations = 0;   ///< every HashKernel
    uint64_t powPermutations = 0;    ///< HashKernels of the PoW grind

    bool operator==(const WorkCounts &) const = default;
};

WorkCounts
countWork(const KernelTrace &trace)
{
    WorkCounts c;
    for (const KernelOp &op : trace.ops) {
        c.ops += 1;
        if (const auto *k = std::get_if<NttKernel>(&op.payload)) {
            c.nttPoints += k->batch << k->logSize;
        } else if (const auto *m = std::get_if<MerkleKernel>(&op.payload)) {
            c.merkleLeaves += m->leafCount;
            c.merkleTrees += 1;
            c.merklePermutations += MerkleTree::permutationCount(
                m->leafCount, m->leafLength, m->capHeight);
        } else if (const auto *h = std::get_if<HashKernel>(&op.payload)) {
            c.hashPermutations += h->permutations;
            if (op.label == "FRI: proof-of-work")
                c.powPermutations += h->permutations;
        }
    }
    return c;
}

/**
 * Poseidon permutations of one Merkle tree from the sponge's own
 * definition (rate 8, leaves of 1..4 elements are their own digest,
 * one 2-to-1 compression per interior node down to the cap), computed
 * apart from MerkleTree::permutationCount to cross-check it.
 */
uint64_t
spongeMerklePermutations(uint64_t leaves, uint64_t leaf_len,
                         uint32_t cap_height)
{
    const uint64_t rate = PoseidonConfig::rate;
    const uint64_t per_leaf =
        (leaf_len >= 1 && leaf_len <= 4)
            ? 0
            : std::max<uint64_t>(1, (leaf_len + rate - 1) / rate);
    return per_leaf * leaves + (leaves - (uint64_t{1} << cap_height));
}

// ---------------------------------------------------------------------
// Kernel replay: re-run a recorded trace's kernels through the public
// ntt / merkle / hash APIs on seeded inputs of the recorded shapes.

std::vector<Fp>
randomVector(size_t n, SplitMix64 &rng)
{
    std::vector<Fp> v(n);
    for (Fp &x : v)
        x = randomFp(rng);
    return v;
}

/** Horner evaluation of coefficients @p c at @p x. */
Fp
horner(const std::vector<Fp> &c, Fp x)
{
    Fp acc = Fp::zero();
    for (size_t i = c.size(); i-- > 0;)
        acc = acc * x + c[i];
    return acc;
}

/** Domain point i of the size-2^log coset shift*H, optionally in
 *  bit-reversed order. */
Fp
domainPoint(uint32_t log_size, size_t i, Fp shift, bool bitrev)
{
    const uint64_t e = bitrev ? reverseBits(i, log_size) : i;
    return shift * Fp::primitiveRootOfUnity(log_size).pow(e);
}

struct Replay
{
    double nttSeconds = 0.0;
    double merkleSeconds = 0.0;
    double hashSeconds = 0.0;
};

void
replayNtt(const NttKernel &k, const Proved &proof, const FriConfig &cfg,
          SplitMix64 &rng, Replay &replay, Tally &tally)
{
    constexpr int kPointsPerKernel = 2;
    const size_t big = size_t{1} << k.logSize;
    const Fp shift = k.coset ? defaultCosetShift() : Fp::one();
    const std::string what = std::string("ntt replay 2^") +
                             std::to_string(k.logSize) + " x" +
                             std::to_string(k.batch);

    if (k.inverse) {
        // Values on the (coset) domain -> coefficients; the Horner
        // value of the output at domain point i is input value i.
        std::vector<std::vector<Fp>> polys(k.batch);
        for (auto &p : polys)
            p = randomVector(big, rng);
        const auto inputs = polys;
        const Stopwatch watch;
        if (k.coset) {
            for (auto &p : polys)
                cosetInttNN(p, shift);
        } else {
            inttBatchNN(polys);
        }
        replay.nttSeconds += watch.elapsedSeconds();
        for (int t = 0; t < kPointsPerKernel; ++t) {
            const size_t p = rng.nextBelow(k.batch);
            const size_t i = rng.nextBelow(big);
            tally.check(horner(polys[p], domainPoint(k.logSize, i, shift,
                                                     false)) ==
                            inputs[p][i],
                        what + ": inverse output matches Horner");
        }
        return;
    }

    // Forward: coefficients -> evaluations. Commit LDEs (bit-reversed
    // output) extend by the FRI blowup; quotient LDEs (natural order)
    // extend the n-row trace polynomials onto the 2^logSize domain.
    const size_t coeffs = !k.coset       ? big
                          : k.bitrevOutput ? big >> cfg.blowupBits
                                           : proof.rows;
    std::vector<std::vector<Fp>> polys(k.batch);
    for (auto &p : polys)
        p = randomVector(coeffs, rng);
    std::vector<std::vector<Fp>> out;
    const uint32_t blowup = static_cast<uint32_t>(big / coeffs);
    const Stopwatch watch;
    if (!k.coset) {
        out = polys;
        nttBatchNR(out);
    } else if (k.bitrevOutput) {
        out = ldeBatch(polys, blowup, shift);
    } else {
        out = ldeBatchNN(polys, blowup, shift);
    }
    replay.nttSeconds += watch.elapsedSeconds();
    const bool bitrev = !k.coset || k.bitrevOutput;
    for (int t = 0; t < kPointsPerKernel; ++t) {
        const size_t p = rng.nextBelow(k.batch);
        const size_t i = rng.nextBelow(big);
        tally.check(out[p][i] == horner(polys[p], domainPoint(k.logSize,
                                                              i, shift,
                                                              bitrev)),
                    what + ": forward output matches Horner");
    }
}

void
replayMerkle(const MerkleKernel &k, SplitMix64 &rng, Replay &replay,
             Tally &tally)
{
    std::vector<std::vector<Fp>> leaves(k.leafCount);
    for (auto &leaf : leaves)
        leaf = randomVector(k.leafLength, rng);
    const size_t probe = rng.nextBelow(k.leafCount);
    const std::vector<Fp> probe_leaf = leaves[probe];
    const Stopwatch watch;
    const MerkleTree tree(std::move(leaves), k.capHeight);
    replay.merkleSeconds += watch.elapsedSeconds();
    tally.check(tree.cap().size() == (size_t{1} << k.capHeight) &&
                    MerkleTree::verify(probe_leaf, probe,
                                       tree.prove(probe), tree.cap(),
                                       log2Exact(k.leafCount)),
                "merkle replay: opening of a seeded leaf verifies");
}

void
replayHash(const HashKernel &k, SplitMix64 &rng, Replay &replay,
           Tally &tally)
{
    const Poseidon &poseidon = Poseidon::instance();
    PoseidonState state;
    for (Fp &x : state)
        x = randomFp(rng);
    // A short prefix of the chain through the reference permutation.
    PoseidonState reference = state;
    const uint64_t prefix = std::min<uint64_t>(k.permutations, 8);
    for (uint64_t i = 0; i < prefix; ++i)
        poseidon.permuteNaive(reference);

    PoseidonState at_prefix{};
    const Stopwatch watch;
    for (uint64_t i = 0; i < k.permutations; ++i) {
        if (i == prefix)
            at_prefix = state;
        poseidon.permute(state);
    }
    replay.hashSeconds += watch.elapsedSeconds();
    if (prefix == k.permutations)
        at_prefix = state;
    tally.check(at_prefix == reference,
                "hash replay: permute chain matches permuteNaive");
}

void
replayTrace(const Proved &proof, const FriConfig &cfg, SplitMix64 &rng,
            Replay &replay, Tally &tally)
{
    for (const KernelOp &op : proof.trace.ops) {
        if (const auto *k = std::get_if<NttKernel>(&op.payload))
            replayNtt(*k, proof, cfg, rng, replay, tally);
        else if (const auto *m = std::get_if<MerkleKernel>(&op.payload))
            replayMerkle(*m, rng, replay, tally);
        else if (const auto *h = std::get_if<HashKernel>(&op.payload))
            replayHash(*h, rng, replay, tally);
    }
}

// ---------------------------------------------------------------------
// Closed-loop service client.

struct ServedItem
{
    ProveRequest request;
    uint64_t key = 0;
    uint32_t connection = 0;
};

struct ServedResult
{
    bool ok = false;       ///< ProveOk with server timing
    bool verified = false; ///< the daemon's verify flag
    uint64_t clientNs = 0;
    uint64_t serverNs = 0;
    uint64_t queuedNs = 0;
    uint64_t proveNs = 0;
    uint64_t serializeNs = 0;
    uint64_t queueDepth = 0;
    std::vector<uint8_t> proof;
};

/**
 * Issue @p items from one thread per connection, each sending its next
 * request when the previous response lands. Results are indexed like
 * @p items. Requests carry non-zero trace ids so every response brings
 * back the server's timing decomposition.
 */
std::vector<ServedResult>
driveClosedLoop(const std::string &socket,
                const std::vector<ServedItem> &items,
                uint32_t connections, SpanLog &spans)
{
    std::vector<ServedResult> results(items.size());
    std::vector<std::thread> workers;
    for (uint32_t c = 0; c < connections; ++c) {
        workers.emplace_back([&, c] {
            service::ServiceClient client(socket);
            for (size_t i = 0; i < items.size(); ++i) {
                if (items[i].connection != c || !client.connected())
                    continue;
                const uint64_t start = spans.nowNs();
                const Stopwatch watch;
                const auto resp = client.prove(items[i].request);
                ServedResult &r = results[i];
                r.clientNs =
                    static_cast<uint64_t>(watch.elapsedSeconds() * 1e9);
                spans.add({"load/request", "", start, spans.nowNs(),
                           items[i].request.traceId, c + 1});
                if (!resp || resp->tag != service::Tag::ProveOk ||
                    !resp->prove.hasServerTiming)
                    continue;
                const service::ProveResponse &p = resp->prove;
                r.ok = true;
                r.verified = p.verified;
                r.serverNs = p.latencyNs;
                r.queuedNs = p.queuedNs;
                r.proveNs = p.proveNs;
                r.serializeNs = p.serializeNs;
                r.queueDepth = p.queueDepth;
                r.proof = p.proof;
            }
        });
    }
    for (auto &w : workers)
        w.join();
    return results;
}

/** Per-request service decomposition, means over ok responses. */
void
addServiceLayers(const std::vector<ServedResult> &results,
                 Metrics &metrics)
{
    double queued = 0, prove = 0, serialize = 0, residual = 0,
           depth = 0;
    double n = 0;
    for (const ServedResult &r : results) {
        if (!r.ok)
            continue;
        n += 1;
        queued += static_cast<double>(r.queuedNs);
        prove += static_cast<double>(r.proveNs);
        serialize += static_cast<double>(r.serializeNs);
        residual += static_cast<double>(r.clientNs) -
                    static_cast<double>(r.serverNs);
        depth += static_cast<double>(r.queueDepth);
    }
    n = std::max(n, 1.0);
    metrics["service.queued_ms"] = {queued / n / 1e6, "ms"};
    metrics["service.prove_ms"] = {prove / n / 1e6, "ms"};
    metrics["service.serialize_us"] = {serialize / n / 1e3, "us"};
    metrics["load.residual_ms"] = {residual / n / 1e6, "ms"};
    metrics["service.queue_depth"] = {depth / n, "count"};
}

const load::Scenario &
serviceScenario()
{
    static const load::Scenario scenario = [] {
        load::Scenario s = load::builtinScenario("zipfian-closed");
        s.requests = kServiceRequests;
        load::validateScenario(s, "perfbench");
        return s;
    }();
    return scenario;
}

/** The fixed zipfian-closed schedule of one service round. */
std::vector<ServedItem>
serviceItems()
{
    const load::Schedule schedule =
        load::buildSchedule(serviceScenario(), kScheduleSeed);
    std::vector<ServedItem> items;
    for (const load::LoadRequest &r : schedule.requests)
        items.push_back({r.request, r.key, r.connection});
    return items;
}

/**
 * The service of the daemon and of the companion session: 2 lanes over
 * the 4-thread pool. It keeps no per-request RunStats: they only feed
 * unizkd's --stats-json document, which is never written here, and
 * retaining them would make peak RSS grow with the number of rounds
 * that fit in a run.
 */
service::ServiceConfig
serviceConfig(const std::string &socket)
{
    service::ServiceConfig cfg;
    cfg.socketPath = socket;
    cfg.proverLanes = kServiceLanes;
    cfg.maxStoredRuns = 0;
    return cfg;
}

// ---------------------------------------------------------------------
// Traced layer measurement shared by all workloads.

uint64_t
counterDelta(const std::map<std::string, uint64_t> &before,
             const std::map<std::string, uint64_t> &after,
             const std::string &name)
{
    const auto a = after.find(name);
    const auto b = before.find(name);
    return (a == after.end() ? 0 : a->second) -
           (b == before.end() ? 0 : b->second);
}

/**
 * Build, set up, prove (4 threads), serialize, verify and simulate
 * every job with obs on, timing each layer's entry point; then replay
 * each proof's kernel trace and cross-check its work counts against
 * the program's counters.
 */
void
measureProofLayers(const std::vector<Job> &jobs, SplitMix64 &rng,
                   SpanLog &spans, Tally &tally, Metrics &m)
{
    static const char *kCounters[] = {"fri.pow_iterations",
                                      "challenger.permutations",
                                      "fri.queries", "ntt.transforms",
                                      "merkle.trees"};
    std::map<std::string, double> t;
    std::map<std::string, uint64_t> counters;
    WorkCounts total;
    uint64_t sponge_perms = 0;
    uint64_t cycles = 0;
    double classes[static_cast<size_t>(KernelClass::NumClasses)] = {};
    double overlap = 0.0;
    Replay replay;
    const HardwareConfig hw = HardwareConfig::paperDefault();

    for (const Job &job : jobs) {
        const std::string proto = isPlonk(job) ? "plonk" : "stark";
        const std::string what =
            proto + "/" + appName(job.app) + "/" + std::to_string(job.rows);
        SpanLog::Scope job_span(spans, "job/" + what);

        SpanLog::Scope build_span(spans, "workloads/build");
        Instance inst = buildInstance(job);
        t["workloads.build_s"] += build_span.close();
        if (isPlonk(job)) {
            SpanLog::Scope s(spans, "plonk/setup");
            setupInstance(inst);
            t["plonk.setup_s"] += s.close();
        }

        const auto before = obs::counterSnapshot();
        tally.attempted += 1;
        SpanLog::Scope prove_span(spans, proto + "/prove");
        const Proved proof = proveInstance(inst, /*breakdown=*/false);
        t[proto + ".prove_s"] += prove_span.close();
        const auto after = obs::counterSnapshot();
        for (const char *name : kCounters)
            counters[name] += counterDelta(before, after, name);

        // Table 1 is a single-thread breakdown, as in the paper.
        {
            SpanLog::Scope s(spans, "table1/prove-1t");
            tally.attempted += 1;
            setGlobalThreadCount(1);
            const Proved one = proveInstance(inst, /*breakdown=*/true);
            setGlobalThreadCount(kThreads);
            for (size_t c = 0; c < std::size(classes); ++c)
                classes[c] +=
                    one.breakdown.seconds(static_cast<KernelClass>(c));
            overlap += one.breakdown.total() - one.seconds;
            tally.check(one.bytes == proof.bytes,
                        what + ": traced proof bytes equal at 1 and 4 "
                               "threads");
        }

        SpanLog::Scope decode_span(spans, "serialize/decode");
        const auto decoded = decodeProof(inst, proof.bytes);
        t["serialize.decode_s"] += decode_span.close();
        tally.check(decoded.has_value(), what + ": proof decodes");
        if (!decoded) {
            tally.failed += 1;
            continue;
        }
        SpanLog::Scope encode_span(spans, "serialize/encode");
        const std::vector<uint8_t> again = encodeProof(*decoded);
        t["serialize.encode_s"] += encode_span.close();
        tally.check(again == proof.bytes,
                    what + ": serialize round trip is byte-identical");

        tally.attempted += 1;
        SpanLog::Scope verify_span(spans, proto + "/verify");
        const bool ok = verifyProof(inst, *decoded);
        t[proto + ".verify_s"] += verify_span.close();
        if (!ok)
            tally.failed += 1;

        SpanLog::Scope sim_span(spans, "sim/simulate");
        cycles += simulateTrace(proof.trace, hw).totalCycles;
        t["sim.simulate_s"] += sim_span.close();

        // Work counts of the trace against the program's counters.
        const WorkCounts w = countWork(proof.trace);
        tally.check(w.powPermutations ==
                        counterDelta(before, after, "fri.pow_iterations"),
                    what + ": PoW HashKernels == fri.pow_iterations");
        tally.check(w.hashPermutations ==
                        w.powPermutations +
                            counterDelta(before, after,
                                         "challenger.permutations"),
                    what + ": HashKernels == PoW + challenger."
                           "permutations");
        tally.check(w.merkleLeaves ==
                        counterDelta(before, after, "merkle.leaves"),
                    what + ": MerkleKernel leaves == merkle.leaves");
        tally.check(w.merkleTrees ==
                        counterDelta(before, after, "merkle.trees"),
                    what + ": MerkleKernels == merkle.trees");
        for (const KernelOp &op : proof.trace.ops) {
            if (const auto *k = std::get_if<MerkleKernel>(&op.payload))
                sponge_perms += spongeMerklePermutations(
                    k->leafCount, k->leafLength, k->capHeight);
        }
        total.nttPoints += w.nttPoints;
        total.merkleLeaves += w.merkleLeaves;
        total.merklePermutations += w.merklePermutations;
        total.hashPermutations += w.hashPermutations;

        SpanLog::Scope replay_span(spans, "replay");
        replayTrace(proof, job.cfg, rng, replay, tally);
    }
    tally.check(sponge_perms == total.merklePermutations,
                "merkle.permutations agrees with MerkleTree::"
                "permutationCount");

    for (const char *name :
         {"workloads.build_s", "plonk.setup_s", "plonk.prove_s",
          "stark.prove_s", "plonk.verify_s", "stark.verify_s",
          "serialize.encode_s", "serialize.decode_s", "sim.simulate_s"})
        m[name] = {t[name], "s"};
    m["sim.cycles"] = {static_cast<double>(cycles), "count"};
    m["ntt.replay_s"] = {replay.nttSeconds, "s"};
    m["ntt.points"] = {static_cast<double>(total.nttPoints), "count"};
    m["merkle.replay_s"] = {replay.merkleSeconds, "s"};
    m["merkle.leaves"] = {static_cast<double>(total.merkleLeaves),
                          "count"};
    m["merkle.permutations"] = {
        static_cast<double>(total.merklePermutations), "count"};
    m["hash.pow_replay_s"] = {replay.hashSeconds, "s"};
    m["hash.pow_permutations"] = {
        static_cast<double>(total.hashPermutations), "count"};
    for (const char *name : kCounters)
        m[name] = {static_cast<double>(counters[name]), "count"};
    const auto cls = [&](KernelClass c) {
        return classes[static_cast<size_t>(c)];
    };
    m["table1.merkle_s"] = {cls(KernelClass::MerkleTree), "s"};
    m["table1.ntt_s"] = {cls(KernelClass::Ntt), "s"};
    m["table1.poly_s"] = {cls(KernelClass::Polynomial), "s"};
    m["table1.other_hash_s"] = {cls(KernelClass::OtherHash), "s"};
    m["table1.layout_s"] = {cls(KernelClass::LayoutTransform), "s"};
    m["table1.overlap_s"] = {overlap, "s"};
}

/** Poseidon and thread-pool micro-measurements (median of 3). */
void
measureMicroLayers(SpanLog &spans, Metrics &m)
{
    SpanLog::Scope span(spans, "micro");
    const Poseidon &poseidon = Poseidon::instance();
    SplitMix64 rng(7);
    std::vector<double> scalar, batch, single, contended;
    for (int rep = 0; rep < 3; ++rep) {
        constexpr size_t kPerms = 20000;
        PoseidonState s{};
        for (Fp &x : s)
            x = randomFp(rng);
        Stopwatch w1;
        for (size_t i = 0; i < kPerms; ++i)
            poseidon.permute(s);
        scalar.push_back(w1.elapsedSeconds() * 1e9 / kPerms);

        constexpr size_t kStates = 4096;
        std::vector<PoseidonState> states(kStates, s);
        Stopwatch w2;
        for (int r = 0; r < 4; ++r)
            poseidon.permuteBatch(states.data(), states.size());
        batch.push_back(w2.elapsedSeconds() * 1e9 / (4 * kStates));

        // Tiny regions, the shape concurrent service lanes submit.
        constexpr size_t kRegions = 2000;
        const auto submit = [](size_t regions) {
            std::vector<uint64_t> sink(64);
            for (size_t r = 0; r < regions; ++r) {
                parallelFor(0, sink.size(), 16,
                            [&](size_t lo, size_t hi) {
                                for (size_t i = lo; i < hi; ++i)
                                    sink[i] += i ^ r;
                            });
            }
        };
        Stopwatch w3;
        submit(kRegions);
        single.push_back(w3.elapsedSeconds() * 1e6 / kRegions);

        Stopwatch w4;
        std::thread other([&] { submit(kRegions / 2); });
        submit(kRegions / 2);
        other.join();
        contended.push_back(w4.elapsedSeconds() * 1e6 / (kRegions / 2));
    }
    m["hash.permute_ns"] = {median(scalar), "ns"};
    m["hash.permute_batch_ns"] = {median(batch), "ns"};
    m["common.parallel_for_us"] = {median(single), "us"};
    m["common.parallel_for_contended_us"] = {median(contended), "us"};
}

// ---------------------------------------------------------------------
// Modes

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans;
    std::string socket;
};

/** One cold set-up: pool start, build, preprocessing. */
int
modeSetup(const Args &a)
{
    const Stopwatch watch;
    setGlobalThreadCount(kThreads);
    std::vector<Instance> insts;
    for (const Job &job : provingJobs(a.workload)) {
        insts.push_back(buildInstance(job));
        setupInstance(insts.back());
    }
    const double seconds = watch.elapsedSeconds();
    std::printf("{\"setup_s\": %.9f}\n", seconds);
    return 0;
}

/**
 * Whole rounds of the workload's proofs (each proof at 4 threads, then
 * at 1 thread), repeated while another round fits in --seconds, after
 * one untimed warm-up proof of each.
 * Prove times are per-round sums reported as round medians. Each proof
 * is verified after each of its two proofs, so verification, which is
 * milliseconds long, is sampled at several moments of the run; verify_s
 * sums the per-proof medians.
 */
void
runProveRounds(const Args &a, const std::vector<Job> &jobs,
               SplitMix64 &rng, Tally &tally, Metrics &m)
{
    setGlobalThreadCount(kThreads);
    std::vector<Instance> insts;
    for (const Job &job : jobs) {
        insts.push_back(buildInstance(job));
        setupInstance(insts.back());
    }

    std::vector<std::vector<uint8_t>> first(insts.size());
    std::vector<WorkCounts> work(insts.size());
    std::vector<std::vector<double>> verify(insts.size());
    std::vector<double> prove4, prove1, per_proof;
    const auto verify_now = [&](size_t i, const Proved &p) {
        tally.attempted += 1;
        double tv = 0.0;
        if (!verifyBytes(insts[i], p.bytes, &tv)) {
            tally.failed += 1;
            tally.check(false, std::string(appName(insts[i].job.app)) +
                                   ": proof verifies");
        }
        verify[i].push_back(tv);
    };
    // One untimed proof of each job first. The first proof of a process
    // pays for faulting in its working set (rollup-aggregate: 7.4 s at 4
    // threads against 5.4-6.0 s for the later ones), which a prover that
    // keeps running pays once, and by an amount that varies with the
    // host's state.
    for (const Instance &inst : insts)
        proveInstance(inst, false);

    const Stopwatch run;
    double last_round = 0.0;
    do {
        const Stopwatch round;
        double p4 = 0, p1 = 0;
        for (size_t i = 0; i < insts.size(); ++i) {
            const Instance &inst = insts[i];
            const std::string what = std::string(appName(inst.job.app));
            tally.attempted += 2;
            setGlobalThreadCount(kThreads);
            const Proved a4 = proveInstance(inst, false);
            verify_now(i, a4);
            setGlobalThreadCount(1);
            const Proved a1 = proveInstance(inst, false);
            setGlobalThreadCount(kThreads);
            verify_now(i, a1);
            p4 += a4.seconds;
            p1 += a1.seconds;
            per_proof.push_back(a4.seconds);

            tally.check(a4.bytes == a1.bytes,
                        what + ": proof bytes equal at 1 and 4 threads");
            tally.check(countWork(a4.trace) == countWork(a1.trace),
                        what + ": work counts equal at 1 and 4 threads");
            if (first[i].empty()) {
                first[i] = a4.bytes;
                work[i] = countWork(a4.trace);
            }
            tally.check(a4.bytes == first[i] &&
                            countWork(a4.trace) == work[i],
                        what + ": proof and work repeat across rounds");
        }
        prove4.push_back(p4);
        prove1.push_back(p1);
        std::fprintf(stderr,
                     "perfbench: round %zu: prove %.3f s at %u threads, "
                     "%.3f s at 1 thread\n",
                     prove4.size(), p4, kThreads, p1);
        // Peak RSS of set-up, the warm-up proofs and one round. Later
        // rounds redo the same work, yet the allocator keeps memory that
        // earlier rounds freed, so a later reading would depend on how
        // many rounds fit.
        if (prove4.size() == 1)
            m["peak_rss_mb"] = {peakRssMb(), "MB"};
        last_round = round.elapsedSeconds();
    } while (run.elapsedSeconds() + last_round <= a.seconds);

    double bytes = 0;
    for (size_t i = 0; i < insts.size(); ++i) {
        const std::string what = appName(insts[i].job.app);
        bytes += static_cast<double>(first[i].size());
        tally.check(reencodesIdentically(insts[i], first[i]),
                    what + ": serialize round trip is byte-identical");
        checkTamperRejected(insts[i], first[i], rng, tally, what);
    }

    const double prove_s = median(prove4);
    m["prove_s"] = {prove_s, "s"};
    m["prove_1t_s"] = {median(prove1), "s"};
    m["verify_s"] = {sumOfMedians(verify), "s"};
    m["proof_kb"] = {bytes / 1000.0, "kB"};
    m["throughput_rps"] = {static_cast<double>(insts.size()) / prove_s,
                           "req/s"};
    m["latency_p50_ms"] = {quantile(per_proof, 0.5) * 1e3, "ms"};
    m["latency_p90_ms"] = {quantile(per_proof, 0.9) * 1e3, "ms"};
}

/**
 * The service layers of a proving workload's traced run: one round of
 * the service-zipfian schedule against an in-process ProofService.
 */
void
companionServiceSession(const std::string &socket, SpanLog &spans,
                        Tally &tally, Metrics &m)
{
    SpanLog::Scope span(spans, "service/companion-session");
    service::ProofService svc(serviceConfig(socket));
    tally.check(svc.start(), "companion service starts");
    const auto results = driveClosedLoop(
        socket, serviceItems(),
        static_cast<uint32_t>(serviceScenario().connections), spans);
    svc.stop();
    uint64_t ok = 0;
    for (const ServedResult &r : results) {
        tally.attempted += 1;
        if (r.ok && r.verified)
            ok += 1;
        else
            tally.failed += 1;
    }
    tally.check(ok == results.size(), "companion service: ok == issued");
    addServiceLayers(results, m);
}

int
modeProve(const Args &a)
{
    const std::vector<Job> jobs = provingJobs(a.workload);
    SplitMix64 rng(a.seed);
    Tally tally;
    Metrics m;
    SpanLog spans;
    if (!a.trace) {
        runProveRounds(a, jobs, rng, tally, m);
    } else {
        obs::setEnabled(true);
        obs::resetAll();
        setGlobalThreadCount(kThreads);
        std::vector<Job> traced = jobs;
        // Every layer is measured on every workload: plonky2-factorial
        // has no Starky proof of its own, so a service-shaped Starky
        // Factorial proof stands in for the stark.* layer.
        if (a.workload == "plonky2-factorial") {
            ProveRequest req;
            req.protocol = WireProtocol::Starky;
            req.app = AppId::Factorial;
            req.rows = kCompanionRows;
            traced.push_back(jobForRequest(req));
        }
        measureProofLayers(traced, rng, spans, tally, m);
        measureMicroLayers(spans, m);
        companionServiceSession(a.socket, spans, tally, m);
        obs::drainSpans();
        tally.check(spans.write(a.spans), "span file written");
    }
    printResult(tally, m);
    return 0;
}

/**
 * The daemon: a ProofService with 2 lanes over the 4-thread pool. It
 * warms up by proving each mix entry once at its largest shape, prints
 * "ready", and drains and exits when stdin reaches EOF or a protocol
 * Shutdown frame arrives. Its last line reports its peak RSS.
 */
int
modeServe(const Args &a)
{
    obs::setEnabled(a.trace);
    setGlobalThreadCount(kThreads);
    service::ProofService svc(serviceConfig(a.socket));
    if (!svc.start())
        return 1;
    for (const load::MixEntry &e : serviceScenario().mix) {
        ProveRequest req;
        req.protocol = e.protocol;
        req.app = e.app;
        req.rows = e.maxRows;
        req.reps = e.reps;
        const Job job = jobForRequest(req);
        const HardwareConfig hw = HardwareConfig::paperDefault();
        if (isPlonk(job))
            runPlonky2App(job.app, job.rows, job.reps, job.cfg, hw);
        else
            runStarkyApp(job.app, job.rows, job.cfg, hw);
    }
    std::printf("ready\n");
    std::fflush(stdout);

    while (!svc.stopRequested()) {
        pollfd p{STDIN_FILENO, POLLIN, 0};
        if (::poll(&p, 1, 100) > 0) {
            char buf[64];
            if (::read(STDIN_FILENO, buf, sizeof(buf)) <= 0)
                break;
        }
    }
    svc.stop();
    const service::ServiceCounters c = svc.counters();
    std::printf("{\"peak_rss_mb\": %.6f, \"completed\": %llu}\n",
                peakRssMb(),
                static_cast<unsigned long long>(c.requestsCompleted));
    return 0;
}

/**
 * The client. Each round serves the fixed zipfian-closed schedule from
 * 4 connections, then proves every distinct request of the schedule
 * in-process at 4 and at 1 thread, compares those proofs byte for byte
 * with what the daemon served, and verifies each served proof. Rounds
 * repeat while another fits in --seconds. Prove and verify times are
 * per-request medians over the rounds, summed over the distinct set.
 * Throughput and the exact p50/p90 of the 200 client latencies are
 * taken per round and reported as round medians, so one round caught
 * in a burst of host contention does not set the run's figure.
 */
int
modeLoad(const Args &a)
{
    const load::Scenario &scenario = serviceScenario();
    const std::vector<ServedItem> items = serviceItems();

    SplitMix64 rng(a.seed);
    Tally tally;
    Metrics m;
    SpanLog spans;
    if (a.trace) {
        obs::setEnabled(true);
        obs::resetAll();
    }
    setGlobalThreadCount(kThreads);

    // The distinct requests, by key, built and set up before timing.
    std::map<uint64_t, size_t> first_item; ///< key -> first item index
    for (size_t i = 0; i < items.size(); ++i)
        first_item.emplace(items[i].key, i);
    std::vector<Job> jobs;
    std::vector<Instance> insts;
    for (const auto &[key, i] : first_item) {
        jobs.push_back(jobForRequest(items[i].request));
        if (!a.trace) {
            insts.push_back(buildInstance(jobs.back()));
            setupInstance(insts.back());
        }
    }

    std::vector<double> p50_ms, p90_ms, rps; ///< one per round
    // Per distinct request, one time per round; summed medians.
    std::vector<std::vector<double>> prove4(first_item.size()),
        prove1(first_item.size()), verify(first_item.size());
    std::vector<uint8_t> sample_proof; ///< the tamper-check target
    const size_t sample = rng.nextBelow(first_item.size());
    std::vector<ServedResult> last;
    double bytes = 0;
    const Stopwatch run;
    double last_round = 0.0;
    do {
        SpanLog::Scope round_span(spans, "load/round");
        const Stopwatch round;
        last = driveClosedLoop(a.socket, items,
                               static_cast<uint32_t>(scenario.connections),
                               spans);
        const double elapsed = round.elapsedSeconds();
        uint64_t ok = 0;
        std::vector<double> latency_ms;
        for (size_t i = 0; i < items.size(); ++i) {
            const ServedResult &r = last[i];
            tally.attempted += 1;
            if (!r.ok || !r.verified) {
                tally.failed += 1;
                continue;
            }
            ok += 1;
            latency_ms.push_back(static_cast<double>(r.clientNs) / 1e6);
            const ServedResult &first = last[first_item[items[i].key]];
            tally.check(!first.ok || first.proof == r.proof,
                        "served proofs of one key are byte-identical");
        }
        tally.check(ok == items.size(), "ok == issued in every round");
        rps.push_back(static_cast<double>(ok) / elapsed);
        p50_ms.push_back(quantile(latency_ms, 0.5));
        p90_ms.push_back(quantile(latency_ms, 0.9));
        std::fprintf(stderr,
                     "perfbench: round %zu: %.2f req/s, p50 %.2f ms, "
                     "p90 %.2f ms\n",
                     rps.size(), rps.back(), p50_ms.back(),
                     p90_ms.back());

        bytes = 0;
        size_t k = 0;
        for (const auto &[key, i] : first_item) {
            const std::vector<uint8_t> &proof = last[i].proof;
            const std::string what = "service key " + std::to_string(key);
            if (k == sample)
                sample_proof = proof;
            bytes += static_cast<double>(proof.size());
            if (a.trace) {
                ++k;
                continue;
            }
            const size_t at = k++;
            const Instance &inst = insts[at];
            tally.attempted += 3;
            setGlobalThreadCount(kThreads);
            const Proved one4 = proveInstance(inst, false);
            setGlobalThreadCount(1);
            const Proved one1 = proveInstance(inst, false);
            setGlobalThreadCount(kThreads);
            prove4[at].push_back(one4.seconds);
            prove1[at].push_back(one1.seconds);
            tally.check(one4.bytes == proof && one1.bytes == proof,
                        what + ": served proof equals in-process proof "
                               "at 4 and 1 threads");
            double tv = 0.0;
            if (!verifyBytes(inst, proof, &tv)) {
                tally.failed += 1;
                tally.check(false, what + ": served proof verifies");
            }
            verify[at].push_back(tv);
            tally.check(reencodesIdentically(inst, proof),
                        what + ": serialize round trip is "
                               "byte-identical");
        }
        last_round = round.elapsedSeconds();
    } while (run.elapsedSeconds() + last_round <= a.seconds);

    {
        // Tamper checks on one seeded served proof.
        auto it = first_item.begin();
        std::advance(it, sample);
        Instance inst = buildInstance(jobs[sample]);
        setupInstance(inst);
        checkTamperRejected(inst, sample_proof, rng, tally,
                            "service key " + std::to_string(it->first));
    }

    if (!a.trace) {
        m["prove_s"] = {sumOfMedians(prove4), "s"};
        m["prove_1t_s"] = {sumOfMedians(prove1), "s"};
        m["verify_s"] = {sumOfMedians(verify), "s"};
        m["proof_kb"] = {bytes / 1000.0, "kB"};
        m["throughput_rps"] = {median(rps), "req/s"};
        m["latency_p50_ms"] = {median(p50_ms), "ms"};
        m["latency_p90_ms"] = {median(p90_ms), "ms"};
    } else {
        measureProofLayers(jobs, rng, spans, tally, m);
        measureMicroLayers(spans, m);
        addServiceLayers(last, m);
        obs::drainSpans();
        tally.check(spans.write(a.spans), "span file written");
    }
    printResult(tally, m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions cli(argc, argv);
    Args a;
    a.workload = cli.getString("workload", "");
    a.seed = cli.getUint("seed", 1);
    a.seconds = cli.getDouble("seconds", 10);
    a.trace = cli.getUint("trace", 0) != 0;
    a.spans = cli.getString("spans", "spans.json");
    a.socket = cli.getString("socket", "perfbench.sock");
    const std::string mode = cli.getString("mode", "");
    if (mode == "setup")
        return modeSetup(a);
    if (mode == "prove")
        return modeProve(a);
    if (mode == "serve")
        return modeServe(a);
    if (mode == "load")
        return modeLoad(a);
    std::fprintf(stderr,
                 "usage: perfbench_driver --mode setup|prove|serve|load "
                 "[--workload W] [--seed N] [--seconds S] [--trace 0|1] "
                 "[--spans PATH] [--socket PATH]\n");
    return 2;
}
