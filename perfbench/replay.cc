/**
 * @file
 * The traced run's per-layer replay. Each traced cell's event streams
 * are fed back, in simulated order, into the public entry point of the
 * layer that produced them, on freshly built components of the cell's
 * configuration, and each replay is timed as a span from here, outside
 * the simulator. A layer's self time is its replay span minus the
 * replays of the layers it calls (the L2 calls the NOC, the DRAM and
 * the compressors; the L1 calls the L2, the compressors and the policy).
 *
 * What the trace taxonomy cannot give, the replay leaves out: a store
 * that misses the L1 emits no L1 event, so the L1 and policy replays
 * see loads and write hits only; the L2 replay sees every store.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "perfbench.hh"
#include "runner/json.hh"
#include "sim/gpu.hh"
#include "workloads/zoo.hh"

namespace latte::perfbench
{

int
SpanLog::add(const std::string &name, int parent, int cell,
             Clock::time_point start, Clock::time_point end)
{
    auto since = [this](Clock::time_point t) {
        return std::chrono::duration<double>(t - origin_).count();
    };
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, parent, cell, since(start), since(end)});
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanLog::write(const std::string &path) const
{
    runner::Json::Array out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        runner::Json::Object span;
        span["id"] = static_cast<double>(i);
        span["name"] = s.name;
        span["parent"] = static_cast<double>(s.parent);
        span["cell"] = static_cast<double>(s.cell);
        span["start_s"] = s.startS;
        span["end_s"] = s.endS;
        out.emplace_back(std::move(span));
    }
    std::ofstream file(path);
    file << runner::Json(std::move(out)).dump() << "\n";
    if (!file)
        throw std::runtime_error("cannot write spans to " + path);
}

namespace
{

bool
isL2Access(const TraceEvent &ev)
{
    return ev.kind == TraceEventKind::L2Hit ||
           ev.kind == TraceEventKind::L2Miss;
}

/**
 * Which L2 accesses were stores, given the L2 accesses and L1 misses in
 * record order. A load miss calls the L2 and then records its L1Miss
 * for the same line before the next L2 access; a store's L2 access has
 * no such L1Miss behind it.
 */
std::vector<bool>
l2Writes(const std::vector<TraceEvent> &stream)
{
    std::vector<bool> is_write;
    const TraceEvent *open = nullptr; // L2 access awaiting its L1Miss
    for (const TraceEvent &ev : stream) {
        if (isL2Access(ev)) {
            if (open)
                is_write.back() = true;
            is_write.push_back(false);
            open = &ev;
        } else if (open) {
            is_write.back() = open->arg0 != ev.arg0;
            open = nullptr;
        }
    }
    if (open)
        is_write.back() = true;
    return is_write;
}

/** A machine of the cell's configuration, with one policy per SM. */
struct ReplayGpu
{
    ReplayGpu(const RunRequest &request, MemoryImage &mem)
        : gpu(request.options.cfg, &mem, request.options.tuning)
    {
        const PolicyKind kind = std::get<PolicyKind>(request.policy);
        for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
            auto &sm = gpu.sm(i);
            policies.push_back(makePolicy(kind, gpu.config()));
            policies.back()->bind(&sm.cache(), &sm.engines(), &sm.meter());
            sm.cache().setModeProvider(policies.back().get());
        }
    }

    Gpu gpu;
    std::vector<std::unique_ptr<Policy>> policies;
};

/** One line the run compressed, and the ratio it recorded (NaN: none). */
struct ProbeItem
{
    Addr line;
    bool l2Side;
    double recordedRatio;
};

int
probeSlot(CompressorId algo)
{
    switch (algo) {
      case CompressorId::Bdi: return 0;
      case CompressorId::Sc: return 1;
      case CompressorId::Bpc: return 2;
      default: return -1;
    }
}

/** One traced cell's event streams, split by the layer that replays them. */
struct Streams
{
    std::vector<TraceEvent> l1;     //!< L1 loads and write hits, with SM
    std::vector<TraceEvent> l2;     //!< L2 accesses
    std::vector<bool> l2Write;      //!< parallel to l2
    std::vector<TraceEvent> dram;   //!< DRAM accesses
    std::array<std::vector<ProbeItem>, 3> probes; //!< bdi, sc, bpc
    std::vector<Addr> lines;        //!< every line that reached the L2
    double insertionRatioSum = 0;
    double insertions = 0;
};

bool
isL1Access(const TraceEvent &ev)
{
    switch (ev.kind) {
      case TraceEventKind::L1Hit:
      case TraceEventKind::L1Miss:
      case TraceEventKind::L1MissMerged:
      case TraceEventKind::L1Reject:
      case TraceEventKind::L1WriteInval:
        return true;
      default:
        return false;
    }
}

Streams
extractStreams(const Tracer &tracer, const GpuConfig &cfg)
{
    Streams s;
    std::vector<TraceEvent> mem_order; // L2 accesses and L1 misses
    // L1 and L2 fills come from their Insert events; every L2 miss also
    // probes its line for the link when link compression is on, which
    // records the ratio only when the transfer shrank.
    std::unordered_map<Addr, double> link_ratio;
    const int link_slot = probeSlot(cfg.linkCompress);
    tracer.forEach([&](const TraceEvent &ev) {
        if (isL1Access(ev))
            s.l1.push_back(ev);
        if (isL2Access(ev)) {
            s.l2.push_back(ev);
            s.lines.push_back(ev.arg0);
        }
        if (isL2Access(ev) || ev.kind == TraceEventKind::L1Miss)
            mem_order.push_back(ev);
        switch (ev.kind) {
          case TraceEventKind::DramAccess:
            s.dram.push_back(ev);
            break;
          case TraceEventKind::L1Insert:
          case TraceEventKind::L2Insert:
            if (const int slot =
                    probeSlot(static_cast<CompressorId>(ev.mode));
                slot >= 0) {
                s.probes[slot].push_back(
                    {ev.arg0, ev.kind == TraceEventKind::L2Insert,
                     ev.value});
                s.insertionRatioSum += ev.value;
                ++s.insertions;
            }
            break;
          case TraceEventKind::LinkCompress:
            link_ratio[ev.arg0] = ev.value;
            break;
          case TraceEventKind::L2Miss:
            if (link_slot >= 0) {
                const auto it = link_ratio.find(ev.arg0);
                s.probes[link_slot].push_back(
                    {ev.arg0, true,
                     it == link_ratio.end() ? NAN : it->second});
                if (it != link_ratio.end())
                    link_ratio.erase(it);
            }
            break;
          default:
            break;
        }
    });
    s.l2Write = l2Writes(mem_order);
    std::sort(s.lines.begin(), s.lines.end());
    s.lines.erase(std::unique(s.lines.begin(), s.lines.end()),
                  s.lines.end());
    return s;
}

/** Times closures as child spans of one cell. */
class CellSpans
{
  public:
    template <typename Fn>
    double
    timed(const char *name, Fn &&fn)
    {
        const auto start = Clock::now();
        fn();
        const auto end = Clock::now();
        children_.push_back({name, start, end});
        return std::chrono::duration<double>(end - start).count();
    }

    void
    commit(SpanLog &spans, int cell_id, Clock::time_point cell_start) const
    {
        const int parent =
            spans.add("cell", -1, cell_id, cell_start, Clock::now());
        for (const Child &c : children_)
            spans.add(c.name, parent, cell_id, c.start, c.end);
    }

  private:
    struct Child
    {
        const char *name;
        Clock::time_point start, end;
    };
    std::vector<Child> children_;
};

} // namespace

TracedCell
traceAndReplay(const RunRequest &request, const CellRun &untraced,
               const runner::ResultCache &cache, int cell_id,
               SpanLog &spans)
{
    TracedCell out;
    const WorkloadRunResult &base = untraced.outcome.value();
    const GpuConfig &cfg = request.options.cfg;
    LayerTotals &totals = out.layers;
    std::vector<std::string> &errors = out.errors;
    const auto cell_start = Clock::now();
    CellSpans span;

    // Ring capacity from the untraced run's own counts, as an upper
    // bound on what the traced run records: a WarpIssue per fetch (the
    // instructions plus each warp's Exit), at most two events per L1
    // load and one per store, fill and eviction, at most three per L2
    // access plus its evictions, two per DRAM access (with the link),
    // and headroom for the per-EP controller events.
    const std::string l1 = kL1Stats;
    auto l1_sum = [&](const char *leaf) {
        return sumStats(base, std::regex(l1 + leaf));
    };
    const double events =
        1.01 * static_cast<double>(base.instructions) +
        2 * l1_sum("loads") + l1_sum("stores") + l1_sum("insertions") +
        l1_sum("evictions") +
        3 * (stat(base, "gpu.l2.reads") + stat(base, "gpu.l2.writes")) +
        stat(base, "gpu.l2.compress.evictions") +
        2 * stat(base, "gpu.dram.accesses");
    const auto capacity =
        static_cast<std::size_t>(events) + (std::size_t{1} << 18);

    Streams s;
    {
        Tracer tracer(capacity);
        RunRequest traced = request;
        traced.tracer = &tracer;
        out.wallS = span.timed("trace.run",
                               [&] { out.outcome = run(traced); });
        totals.dropped = tracer.dropped();
        out.ringFill = static_cast<double>(tracer.recorded()) /
                       static_cast<double>(capacity);
        if (totals.dropped > 0) {
            errors.push_back(strfmt("tracer dropped {} events",
                                    totals.dropped));
            return out;
        }
        s = extractStreams(tracer, cfg);
    }

    // --- workloads: KernelProgram::fetch over every (warp, pc) ---------
    auto kernels = makeKernels(*request.workload, request.seed);
    totals.fetchS = span.timed("workloads.fetch", [&] {
        for (auto &kernel : kernels) {
            const std::uint32_t warps =
                kernel->numCtas() * kernel->warpsPerCta();
            for (std::uint32_t w = 0; w < warps; ++w) {
                for (std::uint64_t pc = 0;; ++pc) {
                    const DecodedInstr instr = kernel->fetch(w, pc);
                    ++totals.fetches;
                    totals.laneAddrs +=
                        static_cast<double>(instr.laneAddrs.size());
                    if (instr.op == Op::Exit)
                        break;
                }
            }
        }
    });

    // --- mem: MemoryImage::line over every line the cell touched -------
    // The image stays warm for the replays below, as in the run, where
    // each line is generated once.
    MemoryImage mem;
    request.workload->setup(mem);
    totals.imageLineS = span.timed("mem.image_line", [&] {
        for (const Addr line : s.lines)
            (void)mem.line(line);
    });
    totals.imageLines = static_cast<double>(s.lines.size());

    // --- compress: probeLines over the lines the cell compressed -------
    CompressionEngines engines(cfg);
    double l1_probe_s = 0, l2_probe_s = 0;
    static constexpr CompressorId kAlgo[] = {
        CompressorId::Bdi, CompressorId::Sc, CompressorId::Bpc};
    static constexpr const char *kSpan[] = {
        "compress.probe.bdi", "compress.probe.sc", "compress.probe.bpc"};
    for (int slot = 0; slot < 3; ++slot) {
        Compressor *engine = engines.get(kAlgo[slot]);
        for (const bool l2_side : {false, true}) {
            std::vector<std::uint8_t> bytes;
            std::vector<const ProbeItem *> batch;
            for (const ProbeItem &item : s.probes[slot]) {
                if (item.l2Side != l2_side)
                    continue;
                const auto &line = mem.line(item.line);
                bytes.insert(bytes.end(), line.begin(), line.end());
                batch.push_back(&item);
            }
            if (batch.empty())
                continue;
            if (kAlgo[slot] == CompressorId::Sc) {
                // SC needs a code book; build one from these lines.
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    engines.sc.trainLine(std::span(bytes).subspan(
                        i * MemoryImage::kLineBytes,
                        MemoryImage::kLineBytes));
                }
                engines.sc.rebuildCodes();
            }
            std::vector<LineMeta> metas(batch.size());
            const double t = span.timed(
                kSpan[slot], [&] { engine->probeLines(bytes, metas); });
            (l2_side ? l2_probe_s : l1_probe_s) += t;
            totals.probeS[slot] += t;
            totals.probeLines += static_cast<double>(batch.size());
            if (kAlgo[slot] == CompressorId::Sc)
                continue; // SC sizes depend on the run's own code book
            for (std::size_t i = 0; i < batch.size(); ++i) {
                const double recorded = batch[i]->recordedRatio;
                if (!std::isnan(recorded) && metas[i].ratio() != recorded) {
                    errors.push_back(strfmt(
                        "replayed {} probe of line {} gives ratio {}, the "
                        "run recorded {}", compressorName(kAlgo[slot]),
                        batch[i]->line, metas[i].ratio(), recorded));
                    break;
                }
            }
        }
    }
    totals.insertionRatioSum = s.insertionRatioSum;
    totals.insertions = s.insertions;

    // --- mem: DramModel::access over the DRAM stream -------------------
    {
        ReplayGpu replay(request, mem);
        DramModel &dram = replay.gpu.dram();
        totals.dramAccessS = span.timed("mem.dram_access", [&] {
            for (const TraceEvent &ev : s.dram)
                (void)dram.access(ev.ts, static_cast<std::uint32_t>(ev.arg0));
        });
    }

    // --- mem: Interconnect::transfer, request and reply per L2 access --
    {
        ReplayGpu replay(request, mem);
        Interconnect &noc = replay.gpu.noc();
        const Cycles l2_latency = cfg.l2.minLatency;
        totals.nocTransferS = span.timed("mem.noc_transfer", [&] {
            for (std::size_t i = 0; i < s.l2.size(); ++i) {
                const bool w = s.l2Write[i];
                const Cycles at = noc.transfer(
                    s.l2[i].ts, w ? 136 : 8, Interconnect::Channel::Request);
                (void)noc.transfer(at + l2_latency, w ? 8 : 136,
                                   Interconnect::Channel::Reply);
            }
        });
    }

    // --- mem: L2Cache::access over the L2 stream ----------------------
    double l2_inclusive_s = 0, l2_calls = 0;
    {
        ReplayGpu replay(request, mem);
        L2Cache &l2 = replay.gpu.l2();
        l2_inclusive_s = span.timed("mem.l2_access", [&] {
            for (std::size_t i = 0; i < s.l2.size(); ++i)
                (void)l2.access(s.l2[i].ts, s.l2[i].arg0, s.l2Write[i]);
        });
        l2_calls = static_cast<double>(l2.reads.count() + l2.writes.count());
    }
    totals.l2AccessS = std::max(0.0, l2_inclusive_s - totals.nocTransferS -
                                         totals.dramAccessS - l2_probe_s);
    const double l2_per_call = l2_calls > 0 ? l2_inclusive_s / l2_calls : 0;

    // L2 evictions: the compressed L2 counts them; the uncompressed L2
    // fills every miss and never invalidates, so a set evicts once per
    // miss beyond its associativity.
    if (cfg.l2.compress != LevelCompress::Off) {
        totals.l2Evictions = stat(base, "gpu.l2.compress.evictions");
    } else {
        std::unordered_map<std::uint32_t, std::uint32_t> set_misses;
        for (const TraceEvent &ev : s.l2) {
            if (ev.kind != TraceEventKind::L2Miss)
                continue;
            const auto set = static_cast<std::uint32_t>(
                (ev.arg0 / cfg.l2.lineBytes) % cfg.l2NumSets());
            if (++set_misses[set] > cfg.l2.assoc)
                ++totals.l2Evictions;
        }
    }

    // --- core: Policy::observeAccess over the AccessEvents -------------
    {
        ReplayGpu replay(request, mem);
        std::vector<AccessEvent> accesses;
        std::vector<std::uint16_t> sms;
        for (const TraceEvent &ev : s.l1) {
            if (ev.kind == TraceEventKind::L1Reject)
                continue; // refused accesses are not observed
            AccessEvent a;
            a.now = ev.ts;
            a.setIndex = ev.arg1;
            a.hit = ev.kind == TraceEventKind::L1Hit ||
                    ev.kind == TraceEventKind::L1WriteInval;
            a.isWrite = ev.kind == TraceEventKind::L1WriteInval;
            if (a.hit)
                a.lineMode = static_cast<CompressorId>(ev.mode);
            accesses.push_back(a);
            sms.push_back(ev.sm);
        }
        totals.observeS = span.timed("core.observe", [&] {
            for (std::size_t i = 0; i < accesses.size(); ++i)
                replay.policies[sms[i]]->observeAccess(accesses[i]);
        });
        for (const auto &policy : replay.policies) {
            totals.eps += static_cast<double>(policy->trace().size());
            totals.modeChanges += static_cast<double>(policy->modeChanges());
        }
    }

    // --- cache: CompressedCache::access + processFills over the L1 -----
    double l1_inclusive_s = 0, l1_l2_calls = 0;
    {
        ReplayGpu replay(request, mem);
        const Cycles drain = (s.l1.empty() ? 0 : s.l1.back().ts) + 100'000;
        l1_inclusive_s = span.timed("cache.l1_access", [&] {
            for (const TraceEvent &ev : s.l1) {
                (void)replay.gpu.sm(ev.sm).cache().access(
                    ev.ts, ev.arg0, ev.kind == TraceEventKind::L1WriteInval);
            }
            for (std::uint32_t i = 0; i < replay.gpu.numSms(); ++i)
                replay.gpu.sm(i).cache().processFills(drain);
        });
        l1_l2_calls = static_cast<double>(replay.gpu.l2().reads.count() +
                                          replay.gpu.l2().writes.count());
    }
    totals.l1AccessS =
        std::max(0.0, l1_inclusive_s - l1_l2_calls * l2_per_call -
                          l1_probe_s - totals.observeS);

    // --- runner: canonical JSON, result-cache store and load -----------
    totals.serializeS = span.timed("runner.serialize", [&] {
        const std::string text = runner::toJson(untraced.outcome).dump();
        const runner::RunKey key = runner::RunKey::of(request);
        cache.store(key, untraced.outcome);
        const auto loaded = cache.lookup(key);
        if (!loaded || runner::toJson(*loaded).dump() != text)
            errors.push_back("result cache round trip changed the result");
    });

    totals.simSelfS = untraced.wallS - totals.fetchS - totals.imageLineS -
                      totals.l2AccessS - totals.dramAccessS -
                      totals.nocTransferS - totals.l1AccessS - l1_probe_s -
                      l2_probe_s - totals.observeS;
    span.commit(spans, cell_id, cell_start);
    return out;
}

void
LayerTotals::add(const LayerTotals &o)
{
    fetchS += o.fetchS;
    fetches += o.fetches;
    laneAddrs += o.laneAddrs;
    imageLineS += o.imageLineS;
    imageLines += o.imageLines;
    l2AccessS += o.l2AccessS;
    l2Evictions += o.l2Evictions;
    dramAccessS += o.dramAccessS;
    nocTransferS += o.nocTransferS;
    l1AccessS += o.l1AccessS;
    for (std::size_t i = 0; i < probeS.size(); ++i)
        probeS[i] += o.probeS[i];
    probeLines += o.probeLines;
    insertionRatioSum += o.insertionRatioSum;
    insertions += o.insertions;
    observeS += o.observeS;
    eps += o.eps;
    modeChanges += o.modeChanges;
    serializeS += o.serializeS;
    simSelfS += o.simSelfS;
    dropped += o.dropped;
}

} // namespace latte::perfbench
