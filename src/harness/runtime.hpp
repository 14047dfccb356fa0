// The runtime knob: every harness entry point (cluster builders, the
// experiment runner, the figure benches) selects one of the two runtimes
// — deterministic simulation or real TCP sockets — with this single enum.
// Protocols never know which runtime drives them: both implement the same
// Process/Context contract.
#ifndef WBAM_HARNESS_RUNTIME_HPP
#define WBAM_HARNESS_RUNTIME_HPP

#include <optional>
#include <string_view>

namespace wbam::harness {

enum class RuntimeKind {
    sim,  // sim::World — discrete-event, deterministic, virtual time
    net,  // net::NetWorld — one poll event loop over loopback/LAN TCP
};

inline const char* to_string(RuntimeKind kind) {
    switch (kind) {
        case RuntimeKind::sim: return "sim";
        case RuntimeKind::net: return "net";
    }
    return "?";
}

inline std::optional<RuntimeKind> parse_runtime_kind(std::string_view s) {
    if (s == "sim") return RuntimeKind::sim;
    if (s == "net") return RuntimeKind::net;
    return std::nullopt;
}

}  // namespace wbam::harness

#endif  // WBAM_HARNESS_RUNTIME_HPP
