// gtopk_perfbench_worker: one training session of the wall-clock benchmark.
//
//   gtopk_perfbench_worker --transport inproc --algo gtopk --out DIR ...
//   gtopkrun -n 4 -- gtopk_perfbench_worker --transport tcp --algo dense ...
//
// Runs train::train_distributed on P = --world ranks, either as P threads
// over an InProcTransport (one process) or as this process's one rank of a
// gtopkrun launch over TcpTransport with ReliableTransport (the wire ARQ)
// stacked on top. It measures nothing itself beyond raw facts: the host
// time of every call train_distributed makes into the batch provider (the
// step boundaries), the messages and payload bytes every rank hands to the
// transport per step, the final parameters' hash, the epoch losses, the
// recovery counters and the peak RSS. run.py turns those into metrics and
// checks them against closed forms it computes itself.
//
// With --trace 1 the session also sets TrainConfig::tracer and records its
// own spans around the public interfaces it hands to the program:
//   bench.data              the batch provider
//   bench.nn                TrainableModel::train_step_gradients (wrapper)
//   bench.reliable.deliver  / bench.reliable.receive
//                           a pass-through Transport above ReliableTransport
//   bench.tcp.deliver       a pass-through Transport between ReliableTransport
//                           and TcpTransport
// Spans stay in the tracer's memory; rank 0's are written to
// DIR/spans0.tsv after the session ends.
//
// Output: DIR/rank<r>.json for every rank this process drove. Exit code 0
// on a completed session, 1 on any error (message on stderr).
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "comm/reliable_transport.hpp"
#include "comm/tags.hpp"
#include "comm/tcp_frame.hpp"
#include "comm/tcp_transport.hpp"
#include "comm/transport.hpp"
#include "data/sampler.hpp"
#include "data/synthetic_images.hpp"
#include "nn/model_zoo.hpp"
#include "obs/trace.hpp"
#include "train/trainer.hpp"
#include "util/log.hpp"

namespace {

using namespace gtopk;

/// Host steady clock in seconds; the same CLOCK_MONOTONIC run.py reads, so
/// launch times taken there and step times taken here share one timeline.
double mono_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// A span recorded from the benchmark's own code into the program's tracer
/// (host clock only). Opened and closed on the rank's own thread, as the
/// tracer's threading contract requires; a null tracer makes it a no-op.
class BenchSpan {
public:
    BenchSpan(obs::Tracer* tracer, int rank, const char* name, std::int64_t bytes = -1)
        : tracer_(tracer) {
        if (!tracer_) return;
        span_.name = name;
        span_.category = "bench";
        span_.rank = rank;
        span_.attrs.bytes = bytes;
        span_.depth = tracer_->enter(rank);
        span_.h_begin_s = obs::host_now_s();
    }
    BenchSpan(const BenchSpan&) = delete;
    BenchSpan& operator=(const BenchSpan&) = delete;
    ~BenchSpan() {
        if (!tracer_) return;
        span_.h_end_s = obs::host_now_s();
        tracer_->exit(span_.rank);
        tracer_->record(span_);
    }

private:
    obs::Tracer* tracer_;
    obs::Span span_{};
};

/// TrainableModel wrapper timing the fused forward+backward (nn layer).
class TimedModel final : public nn::TrainableModel {
public:
    TimedModel(std::unique_ptr<nn::TrainableModel> inner, obs::Tracer* tracer)
        : inner_(std::move(inner)), tracer_(tracer) {
        params_ = inner_->params();
    }
    double train_step_gradients(const nn::Batch& batch) override {
        BenchSpan span(tracer_, util::thread_rank(), "bench.nn");
        return inner_->train_step_gradients(batch);
    }
    double eval_loss(const nn::Batch& batch) override { return inner_->eval_loss(batch); }
    double eval_accuracy(const nn::Batch& batch) override {
        return inner_->eval_accuracy(batch);
    }

private:
    std::unique_ptr<nn::TrainableModel> inner_;
    obs::Tracer* tracer_;
};

/// Pass-through Transport that forwards every call. As the OUTER probe
/// (directly under the Communicator) it counts each rank's messages and
/// payload bytes per training step; as the INNER probe (between
/// ReliableTransport and TcpTransport) it counts frames, control frames,
/// bytes and try_receive hits. With a tracer it spans deliver (both) and
/// the receive calls (outer).
class ProbeTransport final : public comm::Transport {
public:
    enum class Role { kOuter, kInner };

    struct RankCounts {
        std::int64_t step = -1;
        std::vector<std::uint64_t> step_msgs;
        std::vector<std::uint64_t> step_bytes;
        std::uint64_t msgs = 0;
        std::uint64_t bytes = 0;
        std::uint64_t ctrl_frames = 0;
        std::uint64_t try_calls = 0;
        std::uint64_t try_hits = 0;
    };

    ProbeTransport(std::unique_ptr<comm::Transport> inner, Role role,
                   std::int64_t total_steps, obs::Tracer* tracer)
        : inner_(std::move(inner)), role_(role), tracer_(tracer) {
        counts_.resize(static_cast<std::size_t>(inner_->world_size()));
        for (RankCounts& c : counts_) {
            c.step_msgs.assign(static_cast<std::size_t>(total_steps), 0);
            c.step_bytes.assign(static_cast<std::size_t>(total_steps), 0);
        }
    }

    const RankCounts& counts(int rank) const {
        return counts_[static_cast<std::size_t>(rank)];
    }

    int world_size() const override { return inner_->world_size(); }

    void deliver(int dst, comm::Message msg) override {
        // Senders always stamp their own rank, and deliver runs on the
        // sending rank's thread, so each rank touches only its own counts.
        const int src = msg.source;
        RankCounts& c = counts_[static_cast<std::size_t>(src)];
        const std::uint64_t n = msg.payload.size();
        c.msgs += 1;
        c.bytes += n;
        if (c.step >= 0 && c.step < static_cast<std::int64_t>(c.step_msgs.size())) {
            c.step_msgs[static_cast<std::size_t>(c.step)] += 1;
            c.step_bytes[static_cast<std::size_t>(c.step)] += n;
        }
        if (msg.tag == comm::kTagReliableAck || msg.tag == comm::kTagReliablePull) {
            c.ctrl_frames += 1;
        }
        BenchSpan span(tracer_, src,
                       role_ == Role::kOuter ? "bench.reliable.deliver"
                                             : "bench.tcp.deliver",
                       static_cast<std::int64_t>(n));
        inner_->deliver(dst, std::move(msg));
    }

    comm::Message receive(int rank, int source, int tag) override {
        BenchSpan span(receive_tracer(), rank, "bench.reliable.receive");
        return inner_->receive(rank, source, tag);
    }

    std::optional<comm::Message> try_receive(int rank, int source, int tag) override {
        BenchSpan span(receive_tracer(), rank, "bench.reliable.receive");
        std::optional<comm::Message> m = inner_->try_receive(rank, source, tag);
        RankCounts& c = counts_[static_cast<std::size_t>(rank)];
        c.try_calls += 1;
        if (m) c.try_hits += 1;
        return m;
    }

    std::optional<comm::Message> receive_for(int rank, int source, int tag,
                                             double timeout_s) override {
        BenchSpan span(receive_tracer(), rank, "bench.reliable.receive");
        return inner_->receive_for(rank, source, tag, timeout_s);
    }

    std::optional<comm::Message> receive_for_virtual(int rank, int source, int tag,
                                                     double max_arrival_s,
                                                     double host_grace_s) override {
        BenchSpan span(receive_tracer(), rank, "bench.reliable.receive");
        return inner_->receive_for_virtual(rank, source, tag, max_arrival_s,
                                           host_grace_s);
    }

    void shutdown() override { inner_->shutdown(); }
    void begin_epoch(int rank, int epoch) override { inner_->begin_epoch(rank, epoch); }
    bool rank_alive(int rank) const override { return inner_->rank_alive(rank); }
    void on_progress(int rank, std::int64_t step) override {
        counts_[static_cast<std::size_t>(rank)].step = step;
        inner_->on_progress(rank, step);
    }
    std::size_t pending_with_tag_at_least(int rank, int min_tag) const override {
        return inner_->pending_with_tag_at_least(rank, min_tag);
    }
    void set_tracer(obs::Tracer* tracer) override { inner_->set_tracer(tracer); }
    bool shared_memory_fabric() const override { return inner_->shared_memory_fabric(); }
    std::vector<int> take_reconnected(int rank) override {
        return inner_->take_reconnected(rank);
    }

private:
    /// Receive spans belong to the reliable layer's probe only: the inner
    /// probe's try_receive calls are the sleep-poll, counted not spanned.
    obs::Tracer* receive_tracer() const {
        return role_ == Role::kOuter ? tracer_ : nullptr;
    }

    std::unique_ptr<comm::Transport> inner_;
    Role role_;
    obs::Tracer* tracer_;
    std::vector<RankCounts> counts_;
};

struct Options {
    std::string algo = "gtopk";
    std::string transport = "inproc";
    int world = 4;
    std::vector<std::int64_t> hidden;
    std::int64_t batch = 32;
    double density = 0.001;
    int epochs = 4;
    int iters = 10;
    std::uint64_t seed = 1;
    bool trace = false;
    std::string out;
};

std::vector<std::int64_t> parse_dims(const std::string& s) {
    std::vector<std::int64_t> dims;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty()) dims.push_back(std::stoll(item));
    }
    return dims;
}

Options parse_args(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("flag " + a + " needs a value");
        const std::string v = argv[++i];
        if (a == "--algo") o.algo = v;
        else if (a == "--transport") o.transport = v;
        else if (a == "--world") o.world = std::stoi(v);
        else if (a == "--hidden") o.hidden = parse_dims(v);
        else if (a == "--batch") o.batch = std::stoll(v);
        else if (a == "--density") o.density = std::stod(v);
        else if (a == "--epochs") o.epochs = std::stoi(v);
        else if (a == "--iters") o.iters = std::stoi(v);
        else if (a == "--seed") o.seed = std::stoull(v);
        else if (a == "--trace") o.trace = v == "1";
        else if (a == "--out") o.out = v;
        else throw std::invalid_argument("unknown flag " + a);
    }
    if (o.algo != "gtopk" && o.algo != "dense") {
        throw std::invalid_argument("--algo must be gtopk or dense");
    }
    if (o.transport != "inproc" && o.transport != "tcp") {
        throw std::invalid_argument("--transport must be inproc or tcp");
    }
    if (o.out.empty()) throw std::invalid_argument("--out is required");
    return o;
}

std::uint64_t fnv1a(const std::vector<float>& v) {
    std::uint64_t h = 1469598103934665603ULL;
    const auto* p = reinterpret_cast<const unsigned char*>(v.data());
    for (std::size_t i = 0; i < v.size() * sizeof(float); ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

template <typename T>
void write_list(std::ostream& os, const std::vector<T>& v) {
    os << '[';
    for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
    os << ']';
}

/// Everything one rank reports; the process-level fields repeat on every
/// rank an in-process session drives.
struct RankReport {
    int rank = 0;
    std::vector<double> batch_t;
    const ProbeTransport::RankCounts* outer = nullptr;
    const ProbeTransport::RankCounts* inner = nullptr;
    std::uint64_t params_hash = 0;
    std::size_t params = 0;
};

void write_report(const Options& o, const RankReport& r,
                  const train::TrainResult& result, std::size_t m,
                  const comm::ReliableCounts* rel, const comm::TcpTransport* tcp,
                  double bootstrap_s, const obs::Tracer* tracer) {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    const std::string path = o.out + "/rank" + std::to_string(r.rank) + ".json";
    std::ofstream os(path, std::ios::trunc);
    if (!os) throw std::runtime_error("cannot write " + path);
    os << std::setprecision(17);
    os << "{\"rank\":" << r.rank << ",\"world\":" << o.world << ",\"m\":" << m
       << ",\"params\":" << r.params << ",\"params_fnv\":\"" << std::hex
       << r.params_hash << std::dec << "\"";
    os << ",\"batch_t\":";
    write_list(os, r.batch_t);
    os << ",\"step_msgs\":";
    write_list(os, r.outer->step_msgs);
    os << ",\"step_bytes\":";
    write_list(os, r.outer->step_bytes);
    os << ",\"outer_msgs\":" << r.outer->msgs << ",\"outer_bytes\":" << r.outer->bytes;
    std::vector<double> losses;
    for (const train::EpochMetrics& e : result.epochs) losses.push_back(e.train_loss);
    os << ",\"epoch_loss\":";
    write_list(os, losses);
    os << ",\"comm_virtual_s\":" << result.mean_comm_virtual_s
       << ",\"comm_bytes_sent\":" << result.rank0_comm.bytes_sent
       << ",\"maxrss_kb\":" << ru.ru_maxrss;
    if (rel) {
        os << ",\"retransmits\":" << rel->retransmits
           << ",\"corrupt_dropped\":" << rel->corrupt_dropped;
    }
    if (tcp) {
        os << ",\"reconnects\":" << tcp->reconnects()
           << ",\"frames_rejected\":" << tcp->frames_rejected()
           << ",\"tcp_bootstrap_s\":" << bootstrap_s
           << ",\"tcp_frame_header_bytes\":" << comm::tcp::kFrameHeaderBytes;
    }
    if (r.inner) {
        os << ",\"inner_frames\":" << r.inner->msgs << ",\"inner_bytes\":" << r.inner->bytes
           << ",\"inner_ctrl_frames\":" << r.inner->ctrl_frames
           << ",\"inner_try_calls\":" << r.inner->try_calls
           << ",\"inner_try_hits\":" << r.inner->try_hits;
    }
    if (tracer) {
        os << ",\"spans_dropped\":" << tracer->dropped(r.rank);
    }
    os << "}\n";
    if (!os) throw std::runtime_error("short write on " + path);
}

/// Rank 0's retained spans as TSV: name, depth, host begin, host end, bytes,
/// round (the step number on "iteration" spans).
void write_spans(const Options& o, const obs::Tracer& tracer) {
    const std::string path = o.out + "/spans0.tsv";
    std::ofstream os(path, std::ios::trunc);
    if (!os) throw std::runtime_error("cannot write " + path);
    os << std::setprecision(17);
    for (const obs::Span& s : tracer.rank_spans(0)) {
        os << s.name << '\t' << s.depth << '\t' << s.h_begin_s << '\t' << s.h_end_s
           << '\t' << s.attrs.bytes << '\t' << s.attrs.round << '\n';
    }
}

int run(const Options& o) {
    const bool tcp_mode = o.transport == "tcp";
    const std::int64_t total_steps = static_cast<std::int64_t>(o.epochs) * o.iters;

    // Identity: gtopkrun hands each process its rank through the
    // environment; an in-process session drives every rank itself.
    std::optional<comm::TcpConfig> tcfg;
    if (tcp_mode) {
        tcfg = comm::TcpTransport::config_from_env();
        if (!tcfg) throw std::runtime_error("--transport tcp needs a gtopkrun launch");
        if (tcfg->world_size != o.world) {
            throw std::runtime_error("gtopkrun world differs from --world");
        }
    }
    const int local_rank = tcp_mode ? tcfg->rank : -1;

    // Rank 0 records fewer than 96 spans per step on every workload; size
    // the rings so no span of the session is overwritten (run.py fails a
    // session that dropped any).
    std::unique_ptr<obs::Tracer> tracer;
    if (o.trace) {
        tracer = std::make_unique<obs::Tracer>(
            o.world, static_cast<std::size_t>(total_steps) * 96 + 4096);
    }

    // Transport stack, innermost first.
    double bootstrap_s = 0.0;
    comm::TcpTransport* tcp = nullptr;
    comm::ReliableTransport* reliable = nullptr;
    ProbeTransport* inner_probe = nullptr;
    std::unique_ptr<comm::Transport> stack;
    if (tcp_mode) {
        tcfg->connect_timeout_s = 30.0;
        const double b0 = mono_s();
        auto t = std::make_unique<comm::TcpTransport>(*tcfg);
        bootstrap_s = mono_s() - b0;
        tcp = t.get();
        auto ip = std::make_unique<ProbeTransport>(
            std::move(t), ProbeTransport::Role::kInner, total_steps, tracer.get());
        inner_probe = ip.get();
        auto rel = std::make_unique<comm::ReliableTransport>(std::move(ip));
        reliable = rel.get();
        stack = std::move(rel);
    } else {
        stack = std::make_unique<comm::InProcTransport>(o.world);
    }
    ProbeTransport outer(std::move(stack), ProbeTransport::Role::kOuter, total_steps,
                         tracer.get());

    const data::SyntheticImageDataset::Config dcfg;  // 10 classes of 3x16x16
    const data::SyntheticImageDataset dataset(dcfg, o.seed);
    const data::ShardedSampler sampler(dcfg.train_size, dcfg.test_size, o.world,
                                       o.seed ^ 0x5EEDULL);
    nn::MlpConfig mlp;
    mlp.input_dim = dataset.feature_dim();
    mlp.hidden_dims = o.hidden;
    mlp.classes = dcfg.classes;

    train::TrainConfig cfg;
    cfg.algorithm = o.algo == "gtopk" ? train::Algorithm::GtopkSsgd
                                      : train::Algorithm::DenseSsgd;
    cfg.epochs = o.epochs;
    cfg.iters_per_epoch = o.iters;
    cfg.density = o.density;
    cfg.model_seed = o.seed + 17;
    cfg.tracer = tracer.get();
    cfg.transport = &outer;
    cfg.local_rank = local_rank;
    // A lost peer surfaces as a typed error instead of a hang; run.py's
    // session timeout backs this up.
    cfg.recv_timeout_s = 60.0;

    std::vector<std::vector<double>> batch_t(static_cast<std::size_t>(o.world));
    for (auto& v : batch_t) v.reserve(static_cast<std::size_t>(total_steps));
    obs::Tracer* const tr = tracer.get();

    const train::TrainResult result = train::train_distributed(
        o.world, comm::NetworkModel::one_gbps_ethernet(), cfg,
        [&mlp, tr](std::uint64_t seed) -> std::unique_ptr<nn::TrainableModel> {
            auto model = nn::make_mlp(mlp, seed);
            if (!tr) return model;
            return std::make_unique<TimedModel>(std::move(model), tr);
        },
        [&](std::int64_t step, int rank) {
            // The step boundary: one clock read untraced.
            batch_t[static_cast<std::size_t>(rank)].push_back(mono_s());
            BenchSpan span(tr, rank, "bench.data");
            return dataset.batch_flat(sampler.batch_indices(step, rank, o.batch));
        },
        train::EvalBatchProvider{});

    const comm::ReliableCounts rel_counts =
        reliable ? reliable->counts() : comm::ReliableCounts{};
    const std::size_t m = result.final_params.size();
    if (tcp_mode) {
        RankReport r;
        r.rank = local_rank;
        r.batch_t = batch_t[static_cast<std::size_t>(local_rank)];
        r.outer = &outer.counts(local_rank);
        r.inner = &inner_probe->counts(local_rank);
        r.params_hash = fnv1a(result.final_params);
        r.params = result.final_params.size();
        write_report(o, r, result, m, &rel_counts, tcp, bootstrap_s, tr);
    } else {
        for (int rank = 0; rank < o.world; ++rank) {
            const std::size_t slot = static_cast<std::size_t>(rank);
            if (slot >= result.survivor_params.size() ||
                result.final_members[slot] != rank) {
                throw std::runtime_error("rank " + std::to_string(rank) +
                                         " did not finish training");
            }
            RankReport r;
            r.rank = rank;
            r.batch_t = batch_t[slot];
            r.outer = &outer.counts(rank);
            r.params_hash = fnv1a(result.survivor_params[slot]);
            r.params = result.survivor_params[slot].size();
            write_report(o, r, result, m, nullptr, nullptr, 0.0, tr);
        }
    }
    if (tr && (!tcp_mode || local_rank == 0)) write_spans(o, *tr);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "gtopk_perfbench_worker: " << e.what() << "\n";
        return 1;
    }
}
