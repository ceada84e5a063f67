#pragma once
// Textual (de)serialization of SimConfig: a flat `key = value` format with
// `#` comments, used by the wrsn_sim CLI (`--config file`, `--set k=v`) and
// by experiment scripts. Unknown keys are an error — silent typos in
// experiment configs are how wrong papers get written.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"

namespace wrsn {

// Exact parse of a plain decimal integer in [0, 2^64): accepts exactly the
// strings std::to_string prints for a uint64_t (digits only, no sign, no
// leading zeros, no fraction or exponent) and returns nullopt for anything
// else, overflow included — never a rounded or wrapped value. Integer
// config keys and the tools' count flags parse through it.
[[nodiscard]] std::optional<std::uint64_t> parse_decimal_u64(std::string_view text);

// Exact parse of a finite decimal real: std::from_chars's general format
// over the whole text (digits with an optional '-', fraction and exponent;
// no '+', no hex, no surrounding spaces), nullopt for anything else — nan,
// inf and out-of-range values included. Real-valued config keys and the
// tools' real-valued flags parse through it.
[[nodiscard]] std::optional<double> parse_finite_double(std::string_view text);

// All recognized keys, in serialization order.
[[nodiscard]] std::vector<std::string> config_keys();

// Current value of one key, formatted as it would be serialized.
[[nodiscard]] std::string config_get(const SimConfig& config, const std::string& key);

// Sets one key from its textual value. Throws InvalidArgument on unknown
// keys or unparsable values.
void config_set(SimConfig& config, const std::string& key, const std::string& value);

// Full round-trippable dump (every key, one per line, with a header).
[[nodiscard]] std::string config_to_text(const SimConfig& config);

// Applies `key = value` lines on top of `base`. Blank lines and lines
// starting with '#' are ignored; inline `# ...` comments are stripped.
[[nodiscard]] SimConfig config_from_text(const std::string& text,
                                         const SimConfig& base = SimConfig{});

// File variants.
void save_config(const std::string& path, const SimConfig& config);
[[nodiscard]] SimConfig load_config(const std::string& path,
                                    const SimConfig& base = SimConfig{});

// Applies a `--faults FILE|spec` CLI argument (shared by wrsn_sim,
// wrsn_sweep and wrsn_trace) and force-enables fault injection. A spec is a
// comma-separated `key=value` list using the fault.* config keys, with the
// `fault.` prefix optional:
//   --faults request_loss_prob=0.2,rv_breakdown_at_h=6
// An argument without '=' is treated as a config-file path whose keys
// overlay `config` (typically a file of fault.* lines, but any key works).
void apply_fault_arg(SimConfig& config, const std::string& arg);

}  // namespace wrsn
