// Diagnostics: error reporting for the ARGO tool-chain.
//
// Unrecoverable conditions — broken invariants and malformed inputs that
// prevent any further processing — throw ToolchainError with a message
// naming the offending input; library users catch it and decide how to
// report it instead of having the library write to stderr.
#pragma once

#include <stdexcept>
#include <string>

namespace argo::support {

/// Exception thrown on unrecoverable tool-chain errors (broken invariants,
/// malformed inputs that prevent any further processing).
class ToolchainError : public std::runtime_error {
 public:
  explicit ToolchainError(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace argo::support
