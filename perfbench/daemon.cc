#include "perfbench/daemon.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/common/strutil.hh"
#include "src/store/stats_codec.hh"

namespace mtvbench
{

using mtv::Json;
using mtv::LineChannel;

namespace
{

/** A daemon that stops answering must not hang the benchmark. */
constexpr int readTimeoutS = 120;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

bool
parseLine(const std::string &text, Json *out, std::string *error)
{
    std::string parseError;
    if (Json::parse(text, out, &parseError))
        return true;
    *error = "malformed response: " + parseError;
    return false;
}

Registry
registryOf(const Json &metrics)
{
    Registry registry;
    const Json &counters = metrics.get("counters");
    if (counters.type() == Json::Type::Object) {
        for (const auto &[name, value] : counters.asMembers())
            registry.counters[name] = value.asNumber();
    }
    const Json &histograms = metrics.get("histograms");
    if (histograms.type() == Json::Type::Object) {
        for (const auto &[name, value] : histograms.asMembers()) {
            registry.histograms[name] = {value.getNumber("count"),
                                         value.getNumber("sum")};
        }
    }
    return registry;
}

/** One sweep request of a pass: a family with its defaults. */
bool
sendSweep(LineChannel &channel, int family, int variant, uint64_t id)
{
    mtv::SweepRequest sweep;
    sweep.family = familyNames[family];
    sweep.scale = scaleValues[variant];
    Json line = mtv::sweepRequestToJson(sweep);
    line.set("op", "sweep");
    line.set("id", id);
    line.set("quiet", false);
    return channel.writeLine(line.dump());
}

} // namespace

// ---------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------

Daemon::Daemon(const std::string &binary,
               const std::vector<std::string> &args,
               const std::string &socket, const std::string &logPath)
    : socket_(socket)
{
    // Everything the child needs is built before fork(): the child
    // only redirects descriptors and execs.
    std::vector<std::string> all;
    all.push_back(binary);
    all.insert(all.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &arg : all)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    spawnNs_ = nowNs();
    pid_ = fork();
    if (pid_ == 0) {
        const int log = open(logPath.c_str(),
                             O_WRONLY | O_CREAT | O_APPEND, 0644);
        const int in = open("/dev/null", O_RDONLY);
        if (log < 0 || in < 0)
            _exit(126);
        dup2(in, 0);
        dup2(log, 1);
        dup2(log, 2);
        // Connections the benchmark holds to other daemons must not
        // outlive it inside this child.
        for (int fd = 3; fd < 1024; ++fd)
            close(fd);
        execv(argv[0], argv.data());
        _exit(127);
    }
}

Daemon::~Daemon()
{
    if (pid_ > 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
    }
}

double
Daemon::cpuSeconds() const
{
    const std::string stat =
        readFile("/proc/" + std::to_string(pid_) + "/stat");
    const size_t close = stat.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    // Fields after the command name start at field 3 (state); utime
    // and stime are fields 14 and 15.
    std::istringstream fields(stat.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int index = 3; index <= 15 && (fields >> field); ++index) {
        if (index == 14)
            utime = std::stoull(field);
        if (index == 15)
            stime = std::stoull(field);
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
}

double
Daemon::peakRssMb() const
{
    std::istringstream status(
        readFile("/proc/" + std::to_string(pid_) + "/status"));
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

bool
Daemon::waitExit(double timeoutS, int *status)
{
    const uint64_t deadline =
        nowNs() + static_cast<uint64_t>(timeoutS * 1e9);
    while (nowNs() < deadline) {
        const pid_t done = waitpid(pid_, status, WNOHANG);
        if (done == pid_)
            return true;
        if (done < 0)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

bool
Daemon::shutdown(std::string *error)
{
    if (pid_ <= 0)
        return true;
    std::string connectError;
    const int fd = mtv::connectToDaemon(socket_, &connectError);
    if (fd >= 0) {
        LineChannel channel(fd);
        std::string line;
        if (channel.writeLine("{\"op\":\"shutdown\"}"))
            channel.readLine(&line);
    }
    int status = 0;
    bool clean = waitExit(30.0, &status);
    if (!clean) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        *error = "daemon " + socket_ + " ignored shutdown and was killed";
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        clean = false;
        *error = "daemon " + socket_ + " exited uncleanly";
    }
    pid_ = -1;
    unlink(socket_.c_str());
    return clean;
}

// ---------------------------------------------------------------------
// Connections and control ops
// ---------------------------------------------------------------------

bool
roundTrip(LineChannel &channel, const Json &request, Json *response,
          std::string *error)
{
    if (!channel.writeLine(request.dump())) {
        *error = "daemon closed the connection";
        return false;
    }
    std::string line;
    if (channel.readMessage(&line) != LineChannel::MessageKind::Line) {
        *error = "no answer to " + request.getString("op");
        return false;
    }
    if (!parseLine(line, response, error))
        return false;
    if (response->has("error")) {
        *error = "daemon error: " + response->getString("error");
        return false;
    }
    return true;
}

std::unique_ptr<LineChannel>
connectReady(const std::string &socket, double timeoutS,
             std::string *error)
{
    const uint64_t deadline =
        nowNs() + static_cast<uint64_t>(timeoutS * 1e9);
    int fd = -1;
    while ((fd = mtv::connectToDaemon(socket, error)) < 0) {
        if (nowNs() > deadline) {
            *error = "daemon at " + socket + " never listened: " + *error;
            return nullptr;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    timeval timeout{readTimeoutS, 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    auto channel = std::make_unique<LineChannel>(fd);

    Json ping = Json::object();
    ping.set("op", "ping");
    Json hello = Json::object();
    hello.set("op", "hello");
    hello.set("wire", "binary");
    Json answer;
    if (!roundTrip(*channel, ping, &answer, error) ||
        !roundTrip(*channel, hello, &answer, error)) {
        return nullptr;
    }
    if (answer.getString("wire") != "binary") {
        *error = "daemon at " + socket + " refused the binary wire";
        return nullptr;
    }
    return channel;
}

double
Registry::counter(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
}

double
Registry::counterSum(const std::string &prefix) const
{
    double sum = 0;
    for (auto it = counters.lower_bound(prefix);
         it != counters.end() && it->first.rfind(prefix, 0) == 0; ++it) {
        sum += it->second;
    }
    return sum;
}

bool
readMetrics(LineChannel &channel, MetricsReading *out, std::string *error)
{
    Json request = Json::object();
    request.set("op", "metrics");
    Json answer;
    if (!roundTrip(channel, request, &answer, error))
        return false;
    *out = MetricsReading{};
    if (!answer.getBool("fleet")) {
        out->own = registryOf(answer.get("metrics"));
        return true;
    }
    out->own = registryOf(answer.get("router"));
    const Json &nodes = answer.get("nodes");
    if (nodes.type() != Json::Type::Array) {
        *error = "fleet metrics without nodes";
        return false;
    }
    for (const Json &node : nodes.asArray()) {
        if (!node.getBool("ok")) {
            *error = "fleet node " + node.getString("endpoint") +
                     " unreachable: " + node.getString("error");
            return false;
        }
        out->nodes.push_back(registryOf(node.get("metrics")));
    }
    return true;
}

// ---------------------------------------------------------------------
// The figure pass
// ---------------------------------------------------------------------

PassOutcome
runPass(LineChannel &channel, const std::vector<int> &order, int variant,
        uint64_t firstId, Tracer *tracer, uint32_t passId)
{
    struct Request
    {
        int family = 0;
        uint64_t received = 0;
        uint64_t fold = 0xcbf29ce484222325ull;  // fnv1a64 offset basis
        bool done = false;
        bool failed = false;
        uint32_t span = 0;
    };
    PassOutcome out;
    out.attempted = passPoints();
    std::vector<Request> requests(order.size());
    auto fail = [&](Request *request, const std::string &what) {
        if (request)
            request->failed = true;
        if (out.errors.size() < 8)
            out.errors.push_back(what);
    };

    const uint64_t startNs = nowNs();
    const uint32_t passSpan =
        tracer ? tracer->open("client.pass", 0, passId, startNs) : 0;
    for (size_t i = 0; i < order.size(); ++i) {
        requests[i].family = order[i];
        if (tracer) {
            requests[i].span =
                tracer->open("client.request", passSpan, passId, nowNs());
        }
        if (!sendSweep(channel, order[i], variant, firstId + i)) {
            fail(nullptr, "daemon closed the connection mid-pass");
            return out;
        }
    }

    auto lookup = [&](uint64_t id) -> Request * {
        if (id < firstId || id >= firstId + requests.size())
            return nullptr;
        return &requests[id - firstId];
    };

    size_t pending = requests.size();
    std::string message;
    mtv::ResultFrame frame;
    std::string error;
    while (pending > 0) {
        const uint64_t readStart = nowNs();
        const LineChannel::MessageKind kind = channel.readMessage(&message);
        const uint64_t readEnd = nowNs();
        if (kind == LineChannel::MessageKind::Eof ||
            kind == LineChannel::MessageKind::BadFrame) {
            fail(nullptr, kind == LineChannel::MessageKind::Eof
                              ? "stream ended mid-pass"
                              : "bad frame");
            break;
        }
        if (kind == LineChannel::MessageKind::Frame) {
            if (!mtv::decodeResultFrame(message, &frame, &error)) {
                fail(nullptr, "undecodable frame: " + error);
                break;
            }
            Request *request = lookup(frame.id);
            if (!request || request->done) {
                fail(nullptr, "frame for unknown request");
                break;
            }
            if (tracer) {
                tracer->record("service.readMessage", request->span,
                               passId, readStart, readEnd);
            }
            if (out.firstPointNs == 0)
                out.firstPointNs = readEnd - startNs;
            if (frame.seq != request->received || !frame.hasBlob) {
                fail(request, "point out of order or without blob");
            } else {
                request->fold = mtv::fnv1a64(
                    frame.blob.data(), frame.blob.size(), request->fold);
            }
            ++request->received;
            continue;
        }

        Json line;
        if (!parseLine(message, &line, &error)) {
            fail(nullptr, error);
            break;
        }
        Request *request = lookup(
            static_cast<uint64_t>(line.getNumber("id", 0)));
        if (tracer) {
            tracer->record("service.readMessage",
                           request ? request->span : passSpan, passId,
                           readStart, readEnd);
        }
        if (line.has("error")) {
            fail(request, "daemon error: " + line.getString("error"));
            if (!request)
                break;
            // An error ends its request: no done line follows.
            if (!request->done) {
                request->done = true;
                --pending;
                if (tracer)
                    tracer->finish(request->span, readEnd);
            }
            continue;
        }
        if (!request || request->done) {
            fail(nullptr, "line for unknown request: " + message);
            break;
        }
        const uint32_t expected = familyPoints[request->family];
        const char *family = familyNames[request->family];
        if (line.getBool("ack")) {
            if (line.getNumber("count") != expected)
                fail(request, std::string(family) + ": unexpected count");
            continue;
        }
        if (!line.getBool("done")) {
            fail(request, "unexpected line: " + message);
            continue;
        }
        request->done = true;
        --pending;
        if (tracer)
            tracer->finish(request->span, readEnd);
        const std::string pinned = mtv::format(
            "%016llx", static_cast<unsigned long long>(
                           pinnedDigest(request->family, variant)));
        const std::string folded = mtv::format(
            "%016llx", static_cast<unsigned long long>(request->fold));
        if (line.getBool("cancelled"))
            fail(request, std::string(family) + ": cancelled");
        else if (line.getNumber("count") != expected ||
                 request->received != expected)
            fail(request, std::string(family) + ": points missing");
        else if (line.getString("digest") != pinned || folded != pinned)
            fail(request, std::string(family) + ": digest " +
                              line.getString("digest") + " (client " +
                              folded + "), pinned " + pinned);
        out.simulated +=
            static_cast<uint64_t>(line.getNumber("simulated"));
        if (!request->failed)
            out.completed += expected;
    }
    out.doneNs = nowNs() - startNs;
    if (tracer) {
        for (const Request &request : requests) {
            if (!request.done)
                tracer->finish(request.span, startNs + out.doneNs);
        }
        tracer->finish(passSpan, startNs + out.doneNs);
    }
    return out;
}

uint64_t
probeFirstPoint(LineChannel &channel, const std::vector<int> &order,
                int variant, uint64_t firstId)
{
    const uint64_t startNs = nowNs();
    for (size_t i = 0; i < order.size(); ++i) {
        if (!sendSweep(channel, order[i], variant, firstId + i))
            return 0;
    }
    std::string message;
    for (;;) {
        switch (channel.readMessage(&message)) {
          case LineChannel::MessageKind::Frame:
            return nowNs() - startNs;
          case LineChannel::MessageKind::Line:
            if (message.find("\"error\"") != std::string::npos)
                return 0;
            break;
          default:
            return 0;
        }
    }
}

} // namespace mtvbench
